package broker

// ring is the package's one FIFO: a circular buffer that doubles when
// full, so its length is a power of two and a slot is a mask, not a
// division. It zeroes every slot it pops, so it never pins what it
// handed out. The zero value is an empty ring. It is not safe for
// concurrent use; every owner guards it with its own lock.
type ring[T any] struct {
	buf  []T
	head int // slot of the oldest element
	n    int // elements held
}

func (r *ring[T]) len() int { return r.n }

// push appends v at the tail.
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the head. The ring must not be empty.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// at returns the i-th element from the head (0 is the head), in place.
// i must be below len; the pointer is valid until the next push.
func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *ring[T]) grow() {
	grown := make([]T, max(8, 2*len(r.buf)))
	n := copy(grown, r.buf[r.head:])
	copy(grown[n:], r.buf[:r.head])
	r.buf, r.head = grown, 0
}
