package trace

// Ring is a bounded packet ring buffer: the per-flow window store of
// the streaming engine. Pushing beyond the bound overwrites the oldest
// packet, so a flow's memory footprint is bounded no matter how fast
// it transmits. Storage starts empty and doubles on demand (from 16
// packets up to the bound), so a flow that sends a handful of packets
// holds a handful of slots, not the bound; once a ring has reached its
// high-water mark, Push and Reset never allocate again. Packets are
// stored by value; At and AppendTo read them back in arrival order.
//
// The implementation is deliberately division-free (a wrapping head
// index instead of modulo arithmetic): Push sits on the streaming
// engine's per-packet hot path, where an integer divide is a
// measurable fraction of the whole budget.
type Ring struct {
	buf   []Packet
	max   int // the bound; buf wraps only once it holds max packets
	head  int // index of the oldest packet once full; 0 before that
	total int
}

// ringMinGrow is the first storage size a ring allocates.
const ringMinGrow = 16

// NewRing returns a ring holding at most capacity packets. It
// allocates no packet storage until the first Push.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		panic("trace: ring capacity must be positive")
	}
	return &Ring{max: capacity}
}

// Push appends p, overwriting the oldest packet when full. It reports
// whether a packet was evicted.
func (r *Ring) Push(p Packet) bool {
	if len(r.buf) < r.max {
		if len(r.buf) == cap(r.buf) {
			r.grow()
		}
		r.buf = append(r.buf, p)
		r.total++
		return false
	}
	r.buf[r.head] = p
	r.head++
	if r.head == r.max {
		r.head = 0
	}
	r.total++
	return true
}

// grow doubles the storage, clamped to the bound. It runs only before
// the ring wraps, while head is 0, so the held packets copy over in
// order. The explicit size (rather than append's growth) keeps
// cap(buf) <= max.
func (r *Ring) grow() {
	buf := make([]Packet, len(r.buf), min(max(2*cap(r.buf), ringMinGrow), r.max))
	copy(buf, r.buf)
	r.buf = buf
}

// Len returns the number of packets currently held.
func (r *Ring) Len() int { return len(r.buf) }

// Cap returns the bound: the most packets the ring ever holds.
func (r *Ring) Cap() int { return r.max }

// Total returns the number of packets pushed since the last Reset,
// including evicted ones.
func (r *Ring) Total() int { return r.total }

// At returns the i-th oldest packet currently held, 0 <= i < Len().
func (r *Ring) At(i int) Packet {
	if i < 0 || i >= len(r.buf) {
		panic("trace: ring index out of range")
	}
	idx := r.head + i
	if idx >= len(r.buf) {
		idx -= len(r.buf)
	}
	return r.buf[idx]
}

// AppendTo appends the held packets, oldest first, to dst and returns
// the extended slice. With a dst of sufficient capacity this performs
// no allocation, which is how the streaming engine rebuilds window
// views without touching the heap.
func (r *Ring) AppendTo(dst []Packet) []Packet {
	dst = append(dst, r.buf[r.head:]...)
	return append(dst, r.buf[:r.head]...)
}

// Reset empties the ring without releasing its storage, ready for the
// next window.
func (r *Ring) Reset() { r.buf = r.buf[:0]; r.head = 0; r.total = 0 }
