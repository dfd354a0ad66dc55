package snapshot

import "testing"

// TestCloneOwnsItsBytes: a clone is equal to its source but shares no
// storage with it, so later writes on either side stay invisible to the
// other — the Copies half of the contract.
func TestCloneOwnsItsBytes(t *testing.T) {
	src := []int{1, 2, 3}
	c := Clone(src)
	if len(c) != 3 || c[0] != 1 || c[2] != 3 {
		t.Fatalf("clone = %v, want [1 2 3]", c)
	}
	src[0], c[2] = 99, -1
	if c[0] != 1 || src[2] != 3 {
		t.Fatalf("clone aliases its source: src=%v clone=%v", src, c)
	}
	if Clone([]int{}) != nil || Clone[int](nil) != nil {
		t.Error("clone of an empty slice is not nil")
	}
}

// TestSize counts element bytes, not capacity.
func TestSize(t *testing.T) {
	if got := Size(make([]int64, 3, 10)); got != 24 {
		t.Errorf("Size = %d, want 24", got)
	}
	if got := Size[uint8](nil); got != 0 {
		t.Errorf("Size(nil) = %d, want 0", got)
	}
}
