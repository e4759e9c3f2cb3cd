package reshape

import (
	"math"
	"slices"
	"testing"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

func TestAdaptiveValidation(t *testing.T) {
	for _, tc := range []struct{ i, period int }{{0, 10}, {3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAdaptive(%d, %d) should panic", tc.i, tc.period)
				}
			}()
			NewAdaptive(tc.i, tc.period)
		}()
	}
}

func TestAdaptivePartition(t *testing.T) {
	tr := appgen.Generate(trace.BitTorrent, 60*time.Second, 101)
	a := NewAdaptive(3, 500)
	parts := Apply(a, tr)
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	if total != tr.Len() {
		t.Fatalf("adaptive partition lost packets: %d vs %d", total, tr.Len())
	}
}

// TestAdaptiveBalancesMultiModalFlows: the paper's fixed ranges put
// 54% of BitTorrent on one interface and only 6% on another
// (Figure 4's middle interface); quantile adaptation levels the load
// toward 1/I per interface.
func TestAdaptiveBalancesMultiModalFlows(t *testing.T) {
	tr := appgen.Generate(trace.BitTorrent, 60*time.Second, 102)
	down, _ := tr.ByDirection()

	fixedParts := Apply(Recommended(), down)
	fixedMin := 1.0
	for _, p := range fixedParts {
		if f := float64(p.Len()) / float64(down.Len()); f < fixedMin {
			fixedMin = f
		}
	}
	if fixedMin > 0.15 {
		t.Fatalf("premise: fixed ranges should starve one interface on BT (got min share %.2f)", fixedMin)
	}

	a := NewAdaptive(3, 500)
	adaptiveParts := Apply(a, down)
	for i, p := range adaptiveParts {
		f := float64(p.Len()) / float64(down.Len())
		if f < 0.15 || f > 0.55 {
			t.Errorf("adaptive interface %d share = %.2f, want roughly balanced thirds", i, f)
		}
	}
}

// TestAdaptiveCannotBalancePointMass documents the inherent limit of
// size-deterministic scheduling: a flow whose sizes are (nearly) a
// point mass — pure bulk download — cannot be balanced by ANY
// size-range partition, adaptive or not. The scheduler must stay
// valid; concentration is expected.
func TestAdaptiveCannotBalancePointMass(t *testing.T) {
	tr := appgen.Generate(trace.Downloading, 10*time.Second, 105)
	down, _ := tr.ByDirection()
	a := NewAdaptive(3, 500)
	parts := Apply(a, down)
	total := 0
	maxShare := 0.0
	for _, p := range parts {
		total += p.Len()
		if f := float64(p.Len()) / float64(down.Len()); f > maxShare {
			maxShare = f
		}
	}
	if total != down.Len() {
		t.Fatal("partition lost packets")
	}
	// The first epoch still runs on the paper's fixed ranges, so a
	// small fraction lands elsewhere before adaptation kicks in.
	if maxShare < 0.8 {
		t.Errorf("point-mass traffic unexpectedly balanced (max share %.2f); size-deterministic scheduling cannot do this", maxShare)
	}
}

func TestAdaptiveEdgesStayValid(t *testing.T) {
	a := NewAdaptive(3, 100)
	tr := appgen.Generate(trace.Browsing, 30*time.Second, 103)
	for _, p := range tr.Packets {
		idx := a.Assign(p)
		if idx < 0 || idx >= 3 {
			t.Fatalf("assignment %d out of range", idx)
		}
		if err := a.Edges().Validate(); err != nil {
			t.Fatalf("edges became invalid after adaptation: %v", err)
		}
	}
}

// TestAdaptiveDegenerateTraffic: constant-size traffic must not
// produce zero-width ranges.
func TestAdaptiveDegenerateTraffic(t *testing.T) {
	a := NewAdaptive(3, 50)
	for i := 0; i < 500; i++ {
		idx := a.Assign(trace.Packet{Size: 1576})
		if idx < 0 || idx >= 3 {
			t.Fatalf("assignment %d out of range", idx)
		}
	}
	if err := a.Edges().Validate(); err != nil {
		t.Fatalf("degenerate traffic broke edges: %v (%v)", err, a.Edges())
	}
}

// adversarialSizeStreams are size distributions chosen to stress the
// rederive clamping: quantile collapse (all-equal sizes, at and below
// ℓ_max), sizes above the MTU, minimal periods, and mixtures.
func adversarialSizeStreams() map[string][]int {
	streams := map[string][]int{
		"all-lmax":       repeatSize(LMax, 400),
		"all-small":      repeatSize(40, 400),
		"above-mtu":      repeatSize(5000, 400),
		"near-lmax-pair": nil,
		"descending":     nil,
		"mixed-extreme":  nil,
	}
	pair := make([]int, 0, 400)
	for i := 0; i < 200; i++ {
		pair = append(pair, LMax-1, LMax)
	}
	streams["near-lmax-pair"] = pair
	desc := make([]int, 0, 400)
	for i := 0; i < 400; i++ {
		desc = append(desc, 4000-i*7)
	}
	streams["descending"] = desc
	mixed := make([]int, 0, 400)
	for i := 0; i < 100; i++ {
		mixed = append(mixed, 1, LMax, 9000, LMax-1)
	}
	streams["mixed-extreme"] = mixed
	return streams
}

func repeatSize(size, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = size
	}
	return out
}

// TestAdaptiveEdgesPropertyAdversarial: after EVERY Assign, for every
// interface count and adversarial distribution, the edges pass
// Ranges.Validate, hold exactly i entries, and live in (0, ℓ_max].
// This pins the rederive cap fix: the old code emitted a final edge of
// prev+1 > ℓ_max whenever the top quantile hit ℓ_max.
func TestAdaptiveEdgesPropertyAdversarial(t *testing.T) {
	for name, sizes := range adversarialSizeStreams() {
		for _, i := range []int{1, 2, 3, 5, 7, 16} {
			// period == i is the tightest legal epoch: a full
			// re-derivation from every i packets ("single-packet"
			// quantile slices).
			for _, period := range []int{i, 50} {
				a := NewAdaptive(i, period)
				for k, size := range sizes {
					idx := a.Assign(trace.Packet{Size: size})
					if idx < 0 || idx >= i {
						t.Fatalf("%s i=%d period=%d pkt %d: assignment %d out of range", name, i, period, k, idx)
					}
					edges := a.Edges()
					if err := edges.Validate(); err != nil {
						t.Fatalf("%s i=%d period=%d pkt %d: invalid edges %v: %v", name, i, period, k, edges, err)
					}
					if len(edges) != i {
						t.Fatalf("%s i=%d period=%d pkt %d: %d edges, want exactly %d", name, i, period, k, len(edges), i)
					}
					for _, e := range edges {
						if e <= 0 || e > LMax {
							t.Fatalf("%s i=%d period=%d pkt %d: edge %d outside (0, %d]", name, i, period, k, e, LMax)
						}
					}
				}
			}
		}
	}
}

// TestAdaptiveApplyLosslessAcrossEpochs: the partition property of
// §III-C1 (∪ S_i = S, disjoint) must survive epoch re-derivations,
// including under adversarial size distributions.
func TestAdaptiveApplyLosslessAcrossEpochs(t *testing.T) {
	for name, sizes := range adversarialSizeStreams() {
		tr := trace.New(len(sizes))
		for k, size := range sizes {
			tr.Append(trace.Packet{Time: time.Duration(k) * time.Millisecond, Size: size})
		}
		a := NewAdaptive(3, 50) // many epochs over 400 packets
		parts := Apply(a, tr)
		total := 0
		var bytes int64
		for _, p := range parts {
			total += p.Len()
			bytes += p.Bytes()
		}
		if total != tr.Len() || bytes != tr.Bytes() {
			t.Errorf("%s: partition lost traffic: %d/%d packets, %d/%d bytes",
				name, total, tr.Len(), bytes, tr.Bytes())
		}
		if got := a.Epochs(); got != len(sizes)/50 {
			t.Errorf("%s: %d epochs, want %d", name, got, len(sizes)/50)
		}
	}
}

// TestAdaptiveDiagnostics: Seen counts every assigned packet and
// Epochs every re-derivation — the counters the streaming daemon's
// per-flow metrics surface.
func TestAdaptiveDiagnostics(t *testing.T) {
	a := NewAdaptive(3, 100)
	if a.Seen() != 0 || a.Epochs() != 0 {
		t.Fatalf("fresh scheduler reports seen=%d epochs=%d", a.Seen(), a.Epochs())
	}
	for k := 0; k < 450; k++ {
		a.Assign(trace.Packet{Size: 100 + k%1400})
	}
	if a.Seen() != 450 {
		t.Errorf("seen = %d, want 450", a.Seen())
	}
	if a.Epochs() != 4 {
		t.Errorf("epochs = %d, want 4", a.Epochs())
	}
}

// TestAdaptiveRejectsImpossibleInterfaceCount: more interfaces than
// integer edges fit in (0, ℓ_max] cannot be partitioned.
func TestAdaptiveRejectsImpossibleInterfaceCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewAdaptive(LMax+1, ...) should panic")
		}
	}()
	NewAdaptive(LMax+1, 2*LMax)
}

// TestAdaptiveAssignSteadyStateAllocFree: the daemon runs one
// Adaptive per flow on its per-packet hot path; Assign — including
// the amortized rederive — must not touch the heap in steady state.
func TestAdaptiveAssignSteadyStateAllocFree(t *testing.T) {
	a := NewAdaptive(3, 64)
	sizes := []int{40, 120, 520, 1040, 1576, 5000}
	k := 0
	for ; k < 256; k++ { // warm: fill scratch, cross epochs
		a.Assign(trace.Packet{Size: sizes[k%len(sizes)]})
	}
	allocs := testing.AllocsPerRun(50, func() {
		for j := 0; j < 64; j++ { // one full epoch per run
			a.Assign(trace.Packet{Size: sizes[k%len(sizes)]})
			k++
		}
	})
	if allocs != 0 {
		t.Fatalf("Assign allocates %.1f times per 64-packet epoch, want 0", allocs)
	}
}

func TestAdaptiveChangesSubflowStats(t *testing.T) {
	// After adaptation, per-interface mean sizes differ from the
	// original mean (the defense property), like fixed OR.
	tr := appgen.Generate(trace.BitTorrent, 60*time.Second, 104)
	origMean := 0.0
	for _, p := range tr.Packets {
		origMean += float64(p.Size)
	}
	origMean /= float64(tr.Len())
	parts := Apply(NewAdaptive(3, 1000), tr)
	shifted := 0
	for _, p := range parts {
		if p.Len() == 0 {
			continue
		}
		m := 0.0
		for _, pk := range p.Packets {
			m += float64(pk.Size)
		}
		m /= float64(p.Len())
		if math.Abs(m-origMean)/origMean > 0.2 {
			shifted++
		}
	}
	if shifted < 2 {
		t.Errorf("only %d interfaces shifted their mean size away from the original", shifted)
	}
}

// sortQuantileEdges is the comparison-sort derivation rederive's
// counting sort replaced: edge k-1 is the raw sorted window's
// element n*k/i, bumped to keep strict ascent, then the top edge is
// pinned to ℓ_max and the lower ones walked back below it.
func sortQuantileEdges(window []int, i int) Ranges {
	sorted := slices.Clone(window)
	slices.Sort(sorted)
	n := len(sorted)
	edges := make(Ranges, i)
	prev := 0
	for k := 1; k < i; k++ {
		q := sorted[n*k/i]
		if q <= prev {
			q = prev + 1
		}
		edges[k-1] = q
		prev = q
	}
	edges[i-1] = LMax
	for k := i - 2; k >= 0; k-- {
		if edges[k] >= edges[k+1] {
			edges[k] = edges[k+1] - 1
		}
	}
	return edges
}

// randomSize draws from a mix that stresses the histogram's clamping:
// sizes at or below zero, above ℓ_max, a few repeated point masses,
// and uniform sizes across the whole range.
func randomSize(r *stats.RNG) int {
	switch r.Intn(6) {
	case 0:
		return r.IntRange(-40, 0)
	case 1:
		return r.IntRange(LMax+1, 3*LMax)
	case 2:
		return []int{1, 40, 576, LMax - 1, LMax}[r.Intn(5)]
	default:
		return r.IntRange(1, LMax)
	}
}

// TestAdaptiveRederiveMatchesSortReference pins the stack-histogram
// rederive to the sort-based quantile reference: after every epoch of
// a random size stream, Edges() equals the reference derived from
// that epoch's window, and every packet is routed by the previous
// epoch's edges. Midway through one window the scheduler is
// snapshotted and restored; the restored copy must continue the exact
// assignment and edge sequence of the original.
func TestAdaptiveRederiveMatchesSortReference(t *testing.T) {
	for _, i := range []int{1, 2, 3, 16} {
		for seed := uint64(1); seed <= 4; seed++ {
			r := stats.NewRNG(seed*100 + uint64(i))
			period := i + 1 + r.Intn(120)
			a := NewAdaptive(i, period)
			var restored *Adaptive
			cut := period*3 + 1 + r.Intn(period-1) // mid-window, after three epochs
			want := a.Edges()
			window := make([]int, 0, period)
			for k := 0; k < period*8; k++ {
				if k == cut {
					var err error
					if restored, err = RestoreAdaptive(a.State()); err != nil {
						t.Fatalf("i=%d seed=%d: restore: %v", i, seed, err)
					}
				}
				p := trace.Packet{Size: randomSize(r)}
				idx := a.Assign(p)
				if ref := want.BinOf(p.Size); idx != ref {
					t.Fatalf("i=%d seed=%d pkt %d: size %d assigned %d, reference %d (edges %v)",
						i, seed, k, p.Size, idx, ref, want)
				}
				if restored != nil {
					if got := restored.Assign(p); got != idx {
						t.Fatalf("i=%d seed=%d pkt %d: restored scheduler assigned %d, original %d", i, seed, k, got, idx)
					}
				}
				window = append(window, p.Size)
				if len(window) < period {
					continue
				}
				want = sortQuantileEdges(window, i)
				window = window[:0]
				if got := a.Edges(); !slices.Equal(got, want) {
					t.Fatalf("i=%d seed=%d period=%d epoch %d: edges %v, sort reference %v",
						i, seed, period, a.Epochs(), got, want)
				}
				if restored != nil {
					if got := restored.Edges(); !slices.Equal(got, want) {
						t.Fatalf("i=%d seed=%d epoch %d: restored edges %v, reference %v", i, seed, a.Epochs(), got, want)
					}
				}
			}
			if restored == nil || restored.Seen() != a.Seen() || restored.Epochs() != a.Epochs() {
				t.Fatalf("i=%d seed=%d: restored scheduler missing or diverged in its counters", i, seed)
			}
		}
	}
}
