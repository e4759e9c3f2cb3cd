package trace

import (
	"testing"
	"time"

	"trafficreshape/internal/stats"
)

func ringPacket(i int) Packet {
	return Packet{Time: time.Duration(i) * time.Millisecond, Size: 100 + i}
}

func TestRingBasics(t *testing.T) {
	r := NewRing(4)
	if r.Cap() != 4 || r.Len() != 0 || r.Total() != 0 {
		t.Fatalf("fresh ring: cap=%d len=%d total=%d", r.Cap(), r.Len(), r.Total())
	}
	for i := 0; i < 3; i++ {
		if r.Push(ringPacket(i)) {
			t.Fatalf("push %d evicted below capacity", i)
		}
	}
	if r.Len() != 3 || r.Total() != 3 {
		t.Fatalf("len=%d total=%d after 3 pushes", r.Len(), r.Total())
	}
	for i := 0; i < 3; i++ {
		if got := r.At(i); got != ringPacket(i) {
			t.Fatalf("At(%d) = %v, want %v", i, got, ringPacket(i))
		}
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		evicted := r.Push(ringPacket(i))
		if want := i >= 4; evicted != want {
			t.Fatalf("push %d: evicted=%v, want %v", i, evicted, want)
		}
	}
	if r.Len() != 4 || r.Total() != 10 {
		t.Fatalf("len=%d total=%d after 10 pushes into cap 4", r.Len(), r.Total())
	}
	// Oldest surviving packet is #6.
	for i := 0; i < 4; i++ {
		if got := r.At(i); got != ringPacket(6+i) {
			t.Fatalf("At(%d) = %v, want packet %d", i, got, 6+i)
		}
	}
}

func TestRingAppendTo(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Push(ringPacket(i))
	}
	scratch := make([]Packet, 0, 3)
	out := r.AppendTo(scratch)
	if len(out) != 3 {
		t.Fatalf("AppendTo returned %d packets, want 3", len(out))
	}
	for i, p := range out {
		if p != ringPacket(2+i) {
			t.Fatalf("AppendTo[%d] = %v, want packet %d", i, p, 2+i)
		}
	}
	if &out[0] != &scratch[:1][0] {
		t.Fatal("AppendTo did not reuse the scratch backing array")
	}
}

func TestRingReset(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Push(ringPacket(i))
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatalf("after reset: len=%d total=%d", r.Len(), r.Total())
	}
	r.Push(ringPacket(42))
	if r.Len() != 1 || r.At(0) != ringPacket(42) {
		t.Fatal("ring unusable after reset")
	}
}

func TestRingPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero-capacity": func() { NewRing(0) },
		"bad-index":     func() { NewRing(2).At(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestRingSteadyStateAllocFree: once a ring has grown to its
// high-water mark (the first cycle below), push/drain/reset cycles
// never touch the heap.
func TestRingSteadyStateAllocFree(t *testing.T) {
	r := NewRing(64)
	scratch := make([]Packet, 0, 64)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		for j := 0; j < 128; j++ {
			r.Push(ringPacket(i))
			i++
		}
		scratch = r.AppendTo(scratch[:0])
		r.Reset()
	})
	if allocs != 0 {
		t.Fatalf("ring push/drain cycle allocates %.1f, want 0", allocs)
	}
}

// refRing is the fixed-capacity ring the growing Ring replaced: all
// storage allocated up front, wrapping at cap(buf). The model test
// holds Ring to its observable behaviour.
type refRing struct {
	buf   []Packet
	head  int
	total int
}

func (r *refRing) push(p Packet) bool {
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, p)
		return false
	}
	r.buf[r.head] = p
	r.head = (r.head + 1) % cap(r.buf)
	return true
}

func (r *refRing) at(i int) Packet { return r.buf[(r.head+i)%len(r.buf)] }

func (r *refRing) reset() { r.buf = r.buf[:0]; r.head = 0; r.total = 0 }

// TestRingMatchesFixedCapacityModel drives random Push/Reset
// sequences through Ring and the fixed-capacity reference at bounds
// around the first growth step (15, 16, 17), the degenerate 1 and 2,
// and the daemon's default 4096. Every step must agree on Len, Total
// and the eviction flag; At and AppendTo are compared in full on small
// rings and at every Reset, and sampled otherwise. Storage must never
// exceed the bound.
func TestRingMatchesFixedCapacityModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 15, 16, 17, 4096} {
		rng := stats.NewRNG(uint64(capacity))
		r := NewRing(capacity)
		ref := &refRing{buf: make([]Packet, 0, capacity)}
		check := func(step int, full bool) {
			t.Helper()
			if r.Len() != len(ref.buf) || r.Total() != ref.total {
				t.Fatalf("cap %d step %d: len=%d total=%d, model len=%d total=%d",
					capacity, step, r.Len(), r.Total(), len(ref.buf), ref.total)
			}
			if r.Cap() != capacity {
				t.Fatalf("cap %d step %d: Cap() = %d", capacity, step, r.Cap())
			}
			if c := cap(r.buf); c > capacity {
				t.Fatalf("cap %d step %d: storage grew to %d slots", capacity, step, c)
			}
			if r.Len() == 0 {
				return
			}
			if !full {
				i := rng.Intn(r.Len())
				if r.At(i) != ref.at(i) {
					t.Fatalf("cap %d step %d: At(%d) = %v, model %v", capacity, step, i, r.At(i), ref.at(i))
				}
				return
			}
			got := r.AppendTo(nil)
			for i := range got {
				if want := ref.at(i); got[i] != want || r.At(i) != want {
					t.Fatalf("cap %d step %d: slot %d AppendTo=%v At=%v, model %v",
						capacity, step, i, got[i], r.At(i), want)
				}
			}
		}
		steps := 3*capacity + 200
		small := capacity <= 17
		evictions := 0
		for step := 0; step < steps; step++ {
			// Resets are rare enough that every capacity wraps several
			// times between them, and the rings are reused after each.
			if rng.Intn(capacity+40) == 0 {
				check(step, true)
				r.Reset()
				ref.reset()
				check(step, true)
				continue
			}
			p := ringPacket(step)
			got, want := r.Push(p), ref.push(p)
			if got != want {
				t.Fatalf("cap %d step %d: Push evicted=%v, model %v", capacity, step, got, want)
			}
			if got {
				evictions++
			}
			check(step, small || step%256 == 0)
		}
		check(steps, true)
		if evictions == 0 {
			t.Fatalf("cap %d: the sequence never wrapped the ring", capacity)
		}
	}
}
