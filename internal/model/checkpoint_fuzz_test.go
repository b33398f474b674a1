package model

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"m3/internal/faultinject"
)

func fuzzNet(t testing.TB) *Net {
	cfg := DefaultConfig()
	cfg.Dim = 8
	cfg.Heads = 2
	cfg.Layers = 1
	cfg.Hidden = 16
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func checkpointBytes(t testing.TB) []byte {
	var buf bytes.Buffer
	if err := fuzzNet(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oldFormatBytes re-frames a valid v3 checkpoint the two ways writers before
// PR 8 did: the bare gob payload, and the payload behind a version-2 header
// (no kind byte) whose CRC and length are intact — so only the magic and
// version gates stand between these bytes and the gob decoder.
func oldFormatBytes(t testing.TB) (headerless, v2 []byte) {
	v3 := checkpointBytes(t)
	headerless = v3[ckptHeadLen:]
	v2 = append([]byte(nil), v3[:4]...)
	v2 = binary.LittleEndian.AppendUint32(v2, 2)
	v2 = append(v2, v3[9:]...) // crc | len | payload
	return headerless, v2
}

// FuzzCheckpoint feeds arbitrary bytes to the checkpoint decoder. The only
// acceptable outcomes are a valid *Net or an error — any panic (slice out of
// range, huge allocation, gob explosion) fails the fuzz.
func FuzzCheckpoint(f *testing.F) {
	valid := checkpointBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])       // truncated payload
	f.Add(valid[:10])                 // truncated header
	f.Add([]byte{})                   // empty
	f.Add([]byte("m3cp"))             // magic only
	f.Add([]byte("not a checkpoint")) // no magic
	headerless, v2 := oldFormatBytes(f)
	f.Add(headerless)
	f.Add(v2)
	badMagic := append([]byte(nil), valid...)
	badMagic[0] ^= 0x01 // one flipped magic bit must not route around the CRC
	f.Add(badMagic)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40 // payload bit flip, CRC must catch
	f.Add(flipped)
	badLen := append([]byte(nil), valid...)
	for i := 12; i < 20; i++ { // absurd length field
		badLen[i] = 0xff
	}
	f.Add(badLen)

	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := Load(bytes.NewReader(data))
		if err == nil && net == nil {
			t.Fatal("Load returned nil net and nil error")
		}
		if net != nil {
			if err := net.SelfCheck(); err != nil {
				t.Fatalf("accepted checkpoint fails self-check: %v", err)
			}
		}
	})
}

func TestCheckpointFingerprintRoundTrip(t *testing.T) {
	n := fuzzNet(t)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != n.Fingerprint() {
		t.Error("round-trip changed the fingerprint")
	}
}

func TestCheckpointCRCDetectsBitFlip(t *testing.T) {
	raw := checkpointBytes(t)
	for _, off := range []int{20, len(raw) / 2, len(raw) - 1} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x01
		_, err := Load(bytes.NewReader(mut))
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("bit flip at %d: error %T (%v), want *CorruptError", off, err, err)
		}
	}
}

func TestCheckpointTruncation(t *testing.T) {
	raw := checkpointBytes(t)
	for _, n := range []int{0, 3, 7, 19, 21, len(raw) - 1} {
		if _, err := Load(bytes.NewReader(raw[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

func TestCheckpointVersionGate(t *testing.T) {
	raw := checkpointBytes(t)
	mut := append([]byte(nil), raw...)
	mut[4] = 99 // version field
	_, err := Load(bytes.NewReader(mut))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version accepted or wrong error: %v", err)
	}
}

func TestCheckpointRejectsNonFiniteWeights(t *testing.T) {
	n := fuzzNet(t)
	// Rebuild the payload with a NaN weight and a fresh, valid CRC: only
	// the finiteness check can catch it.
	ck := checkpoint{Cfg: n.Cfg, Weights: make(map[string][]float64)}
	for _, p := range n.params {
		w := append([]float64(nil), p.W...)
		ck.Weights[p.Name] = w
	}
	for name := range ck.Weights {
		ck.Weights[name][0] = math.NaN()
		break
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&ck); err != nil {
		t.Fatal(err)
	}
	_, err := decodePayload(bytes.NewReader(payload.Bytes()))
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Errorf("NaN weight: error %T (%v), want *CorruptError", err, err)
	}
}

// TestCheckpointRejectsOldFormats: only v3 is decoded. A headerless gob
// stream, a v2-headed one, and a v3 file with one flipped magic bit are all
// otherwise-loadable payloads; each must be refused at the header.
func TestCheckpointRejectsOldFormats(t *testing.T) {
	headerless, v2 := oldFormatBytes(t)
	badMagic := checkpointBytes(t)
	badMagic[0] ^= 0x01
	for name, raw := range map[string][]byte{"headerless": headerless, "bad magic": badMagic} {
		_, err := LoadPredictor(bytes.NewReader(raw))
		var ce *CorruptError
		if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "magic") {
			t.Errorf("%s: error %T (%v), want *CorruptError naming the magic", name, err, err)
		}
	}
	if _, err := LoadPredictor(bytes.NewReader(v2)); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("v2 header: error %v, want unsupported version 2", err)
	}
}

func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m3.ckpt")
	n := fuzzNet(t)
	if err := n.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	fpBefore := n.Fingerprint()
	// Overwrite with a different net; the old file must be replaced whole.
	cfg := n.Cfg
	cfg.Seed = 42
	other, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() == fpBefore {
		t.Error("overwrite did not replace the checkpoint")
	}
	// No temp files may survive a successful save.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("stray temp file %s after save", e.Name())
		}
	}
}

// TestLoadFaultInjectedCorruption corrupts the payload in flight through the
// faultinject hook, proving the CRC gate catches damage that happens after
// the file read.
func TestLoadFaultInjectedCorruption(t *testing.T) {
	t.Cleanup(faultinject.Clear)
	faultinject.Set("model.load", func(detail any) {
		payload := detail.(*[]byte)
		if len(*payload) > 0 {
			(*payload)[0] ^= 0xff
		}
	})
	_, err := Load(bytes.NewReader(checkpointBytes(t)))
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Errorf("injected corruption: error %T (%v), want *CorruptError", err, err)
	}
}
