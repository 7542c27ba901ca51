package broker

import "testing"

// TestRingOrder exercises the package's FIFO: order across growth
// mid-wraparound, in-place indexing from the head, and zeroed slots
// behind pops.
func TestRingOrder(t *testing.T) {
	var r ring[*uint64]
	vals := make([]uint64, 101)
	for i := range vals {
		vals[i] = uint64(i)
	}
	for i := 1; i <= 40; i++ {
		r.push(&vals[i])
	}
	for i := uint64(1); i <= 20; i++ {
		if v := r.pop(); *v != i {
			t.Fatalf("pop = %d, want %d", *v, i)
		}
	}
	// Wrap: push more than the freed space to force growth mid-ring.
	for i := 41; i <= 100; i++ {
		r.push(&vals[i])
	}
	if r.len() != 80 {
		t.Fatalf("len = %d, want 80", r.len())
	}
	for i := range r.len() {
		if v := *r.at(i); *v != uint64(21+i) {
			t.Fatalf("at(%d) = %d, want %d", i, *v, 21+i)
		}
	}
	for i := uint64(21); i <= 100; i++ {
		if v := r.pop(); *v != i {
			t.Fatalf("pop = %d, want %d", *v, i)
		}
	}
	if r.len() != 0 {
		t.Fatalf("drained ring holds %d", r.len())
	}
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d still pins a popped value", i)
		}
	}
}
