package model

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"m3/internal/faultinject"
)

// Checkpoint wire format v3: a fixed header followed by the gob payload.
//
//	[4]byte  magic "m3cp"
//	uint32   format version (little-endian)
//	byte     backend kind (0 = net, 1 = net-int8)
//	uint32   CRC-32C (Castagnoli) of the payload
//	uint64   payload length in bytes
//	[]byte   gob-encoded checkpoint struct
//
// The CRC catches torn writes and bit rot before the gob decoder sees the
// bytes; the version gates future format changes; the explicit length
// detects truncation; the kind byte tells the loader which Predictor to
// build (the payload is always float weights — quantized backends are
// re-derived on load, so one payload format serves every kind). This is the
// only format decoded: a stream without the magic or with any other version
// is rejected before the gob decoder runs, so no untrusted byte bypasses
// the CRC and the length bound.
const (
	ckptMagic   = "m3cp"
	ckptVersion = 3
	ckptHeadLen = 21
	// ckptMaxPayload bounds the decoded payload so a corrupt length field
	// cannot drive a multi-gigabyte allocation.
	ckptMaxPayload = 1 << 30
)

// Backend kind bytes in the v3 header.
const (
	ckptKindNet     byte = 0
	ckptKindNetInt8 byte = 1
)

// ckptKindName maps a header kind byte to the registry kind string.
func ckptKindName(b byte) (string, bool) {
	switch b {
	case ckptKindNet:
		return KindNet, true
	case ckptKindNetInt8:
		return KindNetInt8, true
	default:
		return "", false
	}
}

// ckptKindByte maps a registry kind string to its header byte.
func ckptKindByte(kind string) (byte, bool) {
	switch kind {
	case KindNet:
		return ckptKindNet, true
	case KindNetInt8:
		return ckptKindNetInt8, true
	default:
		return 0, false
	}
}

var ckptCRCTable = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports a checkpoint that failed an integrity check: bad
// magic, bad CRC, truncated payload, absurd length, or non-finite weights.
// Callers (the serving layer's reload endpoint) use it to distinguish a
// damaged artifact (422) from an operational error.
type CorruptError struct{ Reason string }

// Error implements the error interface.
func (e *CorruptError) Error() string { return "model: corrupt checkpoint: " + e.Reason }

// checkpoint is the gob payload: the architecture config plus weights keyed
// by parameter name.
type checkpoint struct {
	Cfg     Config
	Weights map[string][]float64
}

// Save writes the network (architecture + weights) to w in the versioned,
// CRC-protected format, tagged as the float backend.
func (n *Net) Save(w io.Writer) error { return saveCheckpoint(w, ckptKindNet, n) }

// Save writes the quantized model's checkpoint: the float source weights
// tagged with the int8 backend kind, so quantization replays on load.
func (q *QuantizedNet) Save(w io.Writer) error { return saveCheckpoint(w, ckptKindNetInt8, q.src) }

// saveCheckpoint writes the v3 header and gob payload for n's weights,
// tagged with the given backend kind byte.
func saveCheckpoint(w io.Writer, kind byte, n *Net) error {
	ck := checkpoint{Cfg: n.Cfg, Weights: make(map[string][]float64, len(n.params))}
	for _, p := range n.params {
		if _, dup := ck.Weights[p.Name]; dup {
			return fmt.Errorf("model: duplicate parameter name %q", p.Name)
		}
		ck.Weights[p.Name] = p.W
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&ck); err != nil {
		return fmt.Errorf("model: encoding checkpoint: %w", err)
	}
	var head [ckptHeadLen]byte
	copy(head[:4], ckptMagic)
	binary.LittleEndian.PutUint32(head[4:8], ckptVersion)
	head[8] = kind
	binary.LittleEndian.PutUint32(head[9:13], crc32.Checksum(payload.Bytes(), ckptCRCTable))
	binary.LittleEndian.PutUint64(head[13:21], uint64(payload.Len()))
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// Load reads a float network saved by Net.Save. It remains the
// float-specific entry point: a checkpoint tagged with a different backend
// kind is rejected with a pointer at LoadPredictor, which handles any kind.
func Load(r io.Reader) (*Net, error) {
	p, err := LoadPredictor(r)
	if err != nil {
		return nil, err
	}
	n, ok := p.(*Net)
	if !ok {
		return nil, fmt.Errorf("model: checkpoint holds backend kind %q, not a float net; use LoadPredictor", p.Kind())
	}
	return n, nil
}

// LoadPredictor reads a checkpoint of any backend kind, verifying the
// header, CRC, parameter shapes, and weight finiteness before any byte
// reaches the model, then builds the Predictor the kind byte names (the
// payload is always float weights; derived backends such as net-int8 are
// rebuilt from them). Malformed or corrupt input of any kind returns an
// error (typically *CorruptError) — never a panic.
func LoadPredictor(r io.Reader) (Predictor, error) {
	var head [ckptHeadLen]byte
	n, err := io.ReadFull(r, head[:])
	if string(head[:min(n, 4)]) != ckptMagic {
		return nil, &CorruptError{Reason: "not an m3 checkpoint (bad magic)"}
	}
	if err != nil {
		return nil, &CorruptError{Reason: "truncated header"}
	}
	if version := binary.LittleEndian.Uint32(head[4:8]); version != ckptVersion {
		return nil, fmt.Errorf("model: unsupported checkpoint format version %d (want %d)", version, ckptVersion)
	}
	kind := head[8]
	kindName, ok := ckptKindName(kind)
	if !ok {
		return nil, fmt.Errorf("model: unsupported checkpoint backend kind byte %d", kind)
	}
	wantCRC := binary.LittleEndian.Uint32(head[9:13])
	length := binary.LittleEndian.Uint64(head[13:21])
	if length > ckptMaxPayload {
		return nil, &CorruptError{Reason: fmt.Sprintf("payload length %d exceeds limit %d", length, int64(ckptMaxPayload))}
	}
	payload, err := io.ReadAll(io.LimitReader(r, int64(length)))
	if err != nil {
		return nil, fmt.Errorf("model: reading checkpoint payload: %w", err)
	}
	if uint64(len(payload)) != length {
		return nil, &CorruptError{Reason: fmt.Sprintf("payload truncated: %d of %d bytes", len(payload), length)}
	}
	faultinject.At("model.load", &payload)
	if got := crc32.Checksum(payload, ckptCRCTable); got != wantCRC {
		return nil, &CorruptError{Reason: fmt.Sprintf("CRC mismatch: file says %08x, payload hashes to %08x", wantCRC, got)}
	}
	net, err := decodePayload(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	if kindName == KindNet {
		return net, nil
	}
	return BuildBackend(kindName, net)
}

// decodePayload turns the gob payload into a validated Net: the architecture
// must pass Config.Validate (via New), every parameter must be present with
// the exact shape, no unknown parameters may remain, and every weight must
// be finite.
func decodePayload(r io.Reader) (*Net, error) {
	var ck checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return nil, fmt.Errorf("model: decoding checkpoint: %w", err)
	}
	n, err := New(ck.Cfg)
	if err != nil {
		return nil, err
	}
	seen := 0
	for _, p := range n.params {
		w, ok := ck.Weights[p.Name]
		if !ok {
			return nil, fmt.Errorf("model: checkpoint missing parameter %q", p.Name)
		}
		if len(w) != len(p.W) {
			return nil, fmt.Errorf("model: parameter %q has %d weights, want %d",
				p.Name, len(w), len(p.W))
		}
		for i, v := range w {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, &CorruptError{Reason: fmt.Sprintf("parameter %q weight %d is %v", p.Name, i, v)}
			}
		}
		copy(p.W, w)
		seen++
	}
	if seen != len(ck.Weights) {
		return nil, fmt.Errorf("model: checkpoint carries %d parameters, architecture declares %d",
			len(ck.Weights), seen)
	}
	return n, nil
}

// SaveFile writes the network to path atomically: the bytes land in a
// temp file in the same directory, are synced, and replace path with a
// rename — so a crash mid-save can never leave a half-written checkpoint
// where a reloading server will find it.
func (n *Net) SaveFile(path string) error {
	return saveFileAtomic(path, n.Save)
}

// SaveFile writes the quantized model's checkpoint to path atomically.
func (q *QuantizedNet) SaveFile(path string) error {
	return saveFileAtomic(path, q.Save)
}

// SavePredictorFile writes any checkpointable predictor to path atomically,
// tagged with its backend kind so LoadPredictorFile rebuilds the same kind.
// Backends without a float source (foreign architectures) are rejected.
func SavePredictorFile(p Predictor, path string) error {
	if IsNil(p) {
		return fmt.Errorf("model: save: nil predictor")
	}
	if _, ok := ckptKindByte(p.Kind()); !ok {
		return fmt.Errorf("model: save: backend kind %q has no checkpoint format", p.Kind())
	}
	switch v := p.(type) {
	case *Net:
		return v.SaveFile(path)
	case *QuantizedNet:
		return v.SaveFile(path)
	default:
		return fmt.Errorf("model: save: backend kind %q has no checkpoint format", p.Kind())
	}
}

func saveFileAtomic(path string, save func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if tmp != "" {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err := save(f); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		tmp = ""
		return err
	}
	tmp = "" // success: nothing to clean up
	return nil
}

// LoadFile reads a float network from path.
func LoadFile(path string) (*Net, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	n, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("model: checkpoint %s: %w", path, err)
	}
	return n, nil
}

// LoadPredictorFile reads a checkpoint of any backend kind from path.
func LoadPredictorFile(path string) (Predictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := LoadPredictor(f)
	if err != nil {
		return nil, fmt.Errorf("model: checkpoint %s: %w", path, err)
	}
	return p, nil
}
