package reshape

import (
	"fmt"

	"trafficreshape/internal/trace"
)

// LMax is ℓ_max, the largest MAC-layer packet size the paper's size
// ranges cover (§III-C3): every range edge lives in (0, LMax], and
// BinOf clamps oversized packets into the top range.
const LMax = 1576

// Adaptive is the dynamic parameter selection sketched in §III-C3:
// "parameters L, I and φ need to be tuned dynamically for different
// applications" and "I can be adjusted dynamically according to the
// privacy requirement and the resource availability".
//
// Fixed ranges can starve interfaces when an application's sizes all
// land in one range (e.g. a pure bulk download never populates the
// small-packet interface, Table I row "do."). Adaptive re-derives the
// range edges every Period packets from the empirical quantiles of
// the recent size distribution, so every interface carries roughly
// 1/I of the traffic regardless of the application. Ownership is
// still exclusive per (current) range, so each epoch's targets remain
// orthogonal in the Eq. (2) sense.
//
// The trade-off: edges now depend on the observed traffic, so an
// adversary watching one interface sees a (slowly) drifting slice of
// the size distribution rather than a fixed band. Epoch boundaries
// are the only state the two endpoints must agree on; in the protocol
// this rides on the same encrypted configuration channel as the
// initial handshake.
//
// Structural invariant: the scheduler always holds exactly i edges,
// strictly ascending within (0, LMax] — rederive rewrites them in
// place and can produce nothing else, so Assign needs no defensive
// clamp and Edges() passes Ranges.Validate after every epoch. The
// per-flow footprint is the edges plus the pending size window, which
// grows with the packets seen up to one period and is then reused;
// rederive's histogram lives on its own stack frame. Once the window
// has reached a full period, Assign and rederive perform zero heap
// allocations, which is what lets the streaming daemon run one
// Adaptive per flow across millions of flows.
type Adaptive struct {
	i      int
	period int
	window []int // recent packet sizes, bounded by period
	edges  Ranges
	seen   int
	epochs int
}

// NewAdaptive builds an adaptive scheduler over i interfaces that
// re-derives its ranges every period packets (period >= i). i is
// bounded by LMax: with one strictly ascending integer edge per
// interface inside (0, LMax], more interfaces than sizes cannot be
// partitioned.
func NewAdaptive(i, period int) *Adaptive {
	if i < 1 {
		panic("reshape: need at least one interface")
	}
	if i > LMax {
		panic("reshape: more interfaces than distinct packet sizes in (0, ℓ_max]")
	}
	if period < i {
		panic("reshape: adaptation period must be at least the interface count")
	}
	edges := make(Ranges, i)
	if i == 1 {
		edges[0] = LMax
	} else {
		initial, err := SelectRanges(i)
		if err != nil {
			panic(err) // unreachable: i >= 2
		}
		copy(edges, initial)
	}
	return &Adaptive{
		i:      i,
		period: period,
		edges:  edges,
	}
}

// Assign implements Scheduler. The current epoch's edges route the
// packet; the packet's size feeds the next epoch's quantiles. The
// edges slice always holds exactly i entries (see the structural
// invariant on Adaptive), so BinOf's top-range clamp already bounds
// the index to [0, i) and no further clamping is needed.
func (a *Adaptive) Assign(p trace.Packet) int {
	idx := a.edges.BinOf(p.Size)
	a.window = append(a.window, p.Size)
	a.seen++
	if len(a.window) >= a.period {
		a.rederive()
		a.window = a.window[:0]
	}
	return idx
}

// rederive sets the range edges to the empirical i-quantiles of the
// last window, keeping them strictly ascending and capped at ℓ_max:
// the top edge is always LMax, and lower edges are clamped below it.
//
// When the quantiles collapse — all sizes equal, or concentrated at
// or above ℓ_max — the edges degrade to adjacent width-one bands
// directly below LMax. Assignment stays valid and lossless (BinOf
// clamps oversized packets into the top range); the traffic simply
// concentrates on one interface, which is inherent to any
// size-deterministic partition of a point mass (see
// TestAdaptiveCannotBalancePointMass).
// Quantiles are read off a counting sort rather than a comparison
// sort: sizes are bounded by ℓ_max (BinOf clamps anything larger into
// the top range, and the histogram clamps identically), so one
// histogram fill plus one bucket walk replaces an O(n log n) sort.
// Profiling showed the periodic sort was ~30% of the streaming
// engine's per-packet budget; the histogram is a few ns amortized.
// It is a stack array, zeroed per call, so no flow carries it between
// epochs. Oversized quantiles land in the LMax bucket, which yields
// the same final edges the raw-value sort would: every quantile at or
// above ℓ_max collapses through the backward strict-ascent walk below.
func (a *Adaptive) rederive() {
	a.epochs++
	var counts [LMax + 1]int32
	hi := 0
	for _, s := range a.window {
		if s > LMax {
			s = LMax
		}
		if s < 0 {
			s = 0
		}
		counts[s]++
		if s > hi {
			hi = s
		}
	}
	// Walk the occupied buckets once, reading quantiles.
	n := len(a.window)
	prev := 0
	k := 1
	target := n * k / a.i // index into the (virtual) sorted window
	cum := 0
	for v := 0; v <= hi; v++ {
		c := int(counts[v])
		if c == 0 {
			continue
		}
		cum += c
		for k < a.i && cum > target { // sorted[target] == v
			q := v
			if q <= prev {
				q = prev + 1
			}
			a.edges[k-1] = q
			prev = q
			k++
			if k < a.i {
				target = n * k / a.i
			}
		}
	}
	// The final edge is ℓ_max by definition; walking back down
	// re-establishes strict ascent when quantiles ran into the cap.
	// i <= LMax guarantees the walk bottoms out above zero.
	a.edges[a.i-1] = LMax
	for k := a.i - 2; k >= 0; k-- {
		if a.edges[k] >= a.edges[k+1] {
			a.edges[k] = a.edges[k+1] - 1
		}
	}
}

// Interfaces implements Scheduler.
func (a *Adaptive) Interfaces() int { return a.i }

// Name implements Scheduler.
func (a *Adaptive) Name() string { return "OR-adaptive" }

// Edges exposes the current epoch's ranges for diagnostics.
func (a *Adaptive) Edges() Ranges { return append(Ranges(nil), a.edges...) }

// Seen returns the total number of packets observed since
// construction — the streaming daemon's per-flow packet odometer.
func (a *Adaptive) Seen() int { return a.seen }

// Epochs returns how many times the ranges have been re-derived,
// surfaced in the daemon's per-flow metrics so operators can see
// adaptation actually happening on live flows.
func (a *Adaptive) Epochs() int { return a.epochs }

// AdaptiveState is the serializable snapshot of an Adaptive scheduler:
// everything a restored scheduler needs to continue the exact decision
// sequence the original would have produced. rederive's histogram is
// not state: it is rebuilt from Window on every call.
type AdaptiveState struct {
	Interfaces int
	Period     int
	Edges      []int // current epoch's range edges, exactly Interfaces entries
	Window     []int // pending sizes feeding the next rederive, < Period entries
	Seen       int
	Epochs     int
}

// State snapshots the scheduler. The returned slices are copies; the
// snapshot stays valid however the scheduler advances afterwards.
func (a *Adaptive) State() AdaptiveState {
	return AdaptiveState{
		Interfaces: a.i,
		Period:     a.period,
		Edges:      append([]int(nil), a.edges...),
		Window:     append([]int(nil), a.window...),
		Seen:       a.seen,
		Epochs:     a.epochs,
	}
}

// RestoreAdaptive rebuilds a scheduler from a snapshot, validating the
// structural invariant (exactly Interfaces edges, strictly ascending
// within (0, ℓ_max]) so a corrupted or forged checkpoint cannot smuggle
// in state that Assign's invariant-free hot path would trip over.
func RestoreAdaptive(st AdaptiveState) (*Adaptive, error) {
	if st.Interfaces < 1 || st.Interfaces > LMax {
		return nil, fmt.Errorf("reshape: restore: interfaces %d out of [1, %d]", st.Interfaces, LMax)
	}
	if st.Period < st.Interfaces {
		return nil, fmt.Errorf("reshape: restore: period %d below interface count %d", st.Period, st.Interfaces)
	}
	if len(st.Edges) != st.Interfaces {
		return nil, fmt.Errorf("reshape: restore: %d edges for %d interfaces", len(st.Edges), st.Interfaces)
	}
	if err := Ranges(st.Edges).Validate(); err != nil {
		return nil, fmt.Errorf("reshape: restore: %w", err)
	}
	if top := st.Edges[len(st.Edges)-1]; top > LMax {
		return nil, fmt.Errorf("reshape: restore: top edge %d above ℓ_max %d", top, LMax)
	}
	if len(st.Window) >= st.Period {
		return nil, fmt.Errorf("reshape: restore: pending window %d not below period %d", len(st.Window), st.Period)
	}
	if st.Seen < 0 || st.Epochs < 0 {
		return nil, fmt.Errorf("reshape: restore: negative counters (seen=%d epochs=%d)", st.Seen, st.Epochs)
	}
	a := &Adaptive{
		i:      st.Interfaces,
		period: st.Period,
		window: append([]int(nil), st.Window...),
		edges:  make(Ranges, st.Interfaces),
		seen:   st.Seen,
		epochs: st.Epochs,
	}
	copy(a.edges, st.Edges)
	return a, nil
}
