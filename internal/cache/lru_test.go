package cache

import "testing"

func TestLRUBasics(t *testing.T) {
	c := New[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Error("empty cache returned a value")
	}
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("a = %v, %v", v, ok)
	}
	// "a" is now most recent; adding "c" must evict "b".
	if evicted := c.Add("c", 3); evicted != 1 {
		t.Error("no eviction at capacity")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("LRU evicted the wrong entry")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("a lost: %v, %v", v, ok)
	}
	if c.Len() != 2 || c.Cap() != 2 {
		t.Errorf("len %d cap %d", c.Len(), c.Cap())
	}
}

func TestLRUUpdateAndRemove(t *testing.T) {
	c := New[int, string](3)
	c.Add(1, "x")
	if evicted := c.Add(1, "y"); evicted != 0 {
		t.Error("update evicted")
	}
	if v, _ := c.Get(1); v != "y" {
		t.Errorf("update lost: %q", v)
	}
	c.Remove(1)
	if _, ok := c.Get(1); ok {
		t.Error("removed key still present")
	}
	c.Add(2, "a")
	c.Purge()
	if c.Len() != 0 {
		t.Errorf("purge left %d entries", c.Len())
	}
}

// TestLRUWeighted: a cost-bounded LRU evicts from the cold end until the
// total cost fits, possibly several entries for one Add, and refuses a
// value costlier than the whole budget.
func TestLRUWeighted(t *testing.T) {
	c := NewWeighted[string, []byte](10, func(b []byte) int64 { return int64(len(b)) })
	c.Add("a", make([]byte, 4))
	c.Add("b", make([]byte, 4))
	if c.Used() != 8 {
		t.Fatalf("used %d, want 8", c.Used())
	}
	if evicted := c.Add("c", make([]byte, 9)); evicted != 2 {
		t.Errorf("evicted %d, want 2", evicted)
	}
	if c.Len() != 1 || c.Used() != 9 {
		t.Errorf("len %d used %d, want 1 and 9", c.Len(), c.Used())
	}
	if evicted := c.Add("huge", make([]byte, 11)); evicted != 0 {
		t.Errorf("oversized add evicted %d", evicted)
	}
	if _, ok := c.Get("huge"); ok || c.Used() != 9 {
		t.Errorf("oversized value stored (used %d)", c.Used())
	}
	c.Remove("c")
	if c.Used() != 0 {
		t.Errorf("used %d after removing everything", c.Used())
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	c := New[int, int](0) // clamped to 1
	c.Add(1, 1)
	c.Add(2, 2)
	if c.Len() != 1 {
		t.Errorf("len %d after clamp", c.Len())
	}
}
