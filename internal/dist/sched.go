package dist

// The placement policy behind popJobs: cost-aware ordering and
// locality-aware worker preference.
//
// Cost. Grid cells differ by an order of magnitude — a morph cell
// sorts and maps every packet of its sub-flows, a kNN-only ablation
// cell is nearly free — and FIFO dispatch convoys a queue of cheap
// cells behind whichever slow cell a worker picked up last. The queue
// is therefore kept in descending estimated-cost order (longest
// processing time first, the classic makespan heuristic): expensive
// cells start early and the cheap tail packs into the remaining
// slots. Estimates start from static scheme-family weights and are
// replaced online by an EWMA of observed cell latencies, so the model
// converges on the fleet's real cost surface within one grid.
//
// Locality. Captured cells name content-addressed traces; dispatching
// one to a worker that already holds them costs nothing, while an
// uncovered worker pays the preload transfer. popJobs therefore lets
// an uncovered worker pass over a captured cell exactly when some
// covered worker has a free slot registered at that instant —
// work-conserving by construction: if no covered worker can take the
// cell right now, whoever is asking gets it (and the preload).

// costModel estimates per-scheme cell cost. Guarded by the
// coordinator's mu.
type costModel struct {
	ewma map[string]float64 // seconds, EWMA of observed latencies
}

func newCostModel() *costModel {
	return &costModel{ewma: make(map[string]float64)}
}

// costAlpha is the EWMA smoothing factor: heavy enough that one
// outlier (a worker hiccup) does not flip the queue order, light
// enough that the model converges within a handful of cells.
const costAlpha = 0.3

// seedCost is the static prior, in rough expected seconds, keyed by
// scheme family. The absolute scale only matters until the first
// observation replaces it; the ordering is what seeds sensible
// placement for a cold coordinator: morphing (per-packet sampling
// against a sorted target) costs multiples of a plain scheduler
// cell, splitting multiplies the packet count, and adaptive
// schedulers re-derive quantile edges per epoch.
func seedCost(scheme string) float64 {
	switch {
	case scheme == "OR+morph":
		return 2.0
	case scheme == "OR+split":
		return 1.0
	case scheme == "Original":
		return 0.3
	case containsFold(scheme, "adaptive"):
		return 0.8
	default:
		return 0.5
	}
}

// containsFold is a tiny ASCII case-insensitive substring check (the
// registry's names are ASCII).
func containsFold(s, sub string) bool {
	lower := func(b byte) byte {
		if 'A' <= b && b <= 'Z' {
			return b + 'a' - 'A'
		}
		return b
	}
	if len(sub) == 0 || len(s) < len(sub) {
		return len(sub) == 0
	}
outer:
	for i := 0; i+len(sub) <= len(s); i++ {
		for j := 0; j < len(sub); j++ {
			if lower(s[i+j]) != lower(sub[j]) {
				continue outer
			}
		}
		return true
	}
	return false
}

// estimate returns the scheme's current cost estimate in seconds.
func (m *costModel) estimate(scheme string) float64 {
	if v, ok := m.ewma[scheme]; ok {
		return v
	}
	return seedCost(scheme)
}

// observe folds one measured cell latency into the scheme's estimate.
func (m *costModel) observe(scheme string, seconds float64) {
	if seconds <= 0 {
		return
	}
	if v, ok := m.ewma[scheme]; ok {
		m.ewma[scheme] = v + costAlpha*(seconds-v)
		return
	}
	m.ewma[scheme] = seconds // first sample replaces the static seed
}

// covers reports whether the session's trace holdings include every
// digest the job names. A job without captured traces is covered by
// everyone.
func covers(s *session, j *job) bool {
	for _, d := range j.digests {
		if !s.sent[d] {
			return false
		}
	}
	return true
}

// insertByCost places j into queue keeping descending j.cost order,
// stable for equal costs (a grid's equal-cost cells dispatch in
// submission order). Returns the new queue.
func insertByCost(queue []*job, j *job) []*job {
	lo, hi := 0, len(queue)
	for lo < hi {
		mid := (lo + hi) / 2
		if queue[mid].cost >= j.cost {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	queue = append(queue, nil)
	copy(queue[lo+1:], queue[lo:])
	queue[lo] = j
	return queue
}
