package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// median returns the median of xs (the mean of the middle pair for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileNS returns the q-quantile of sorted nanosecond samples by
// the nearest-rank rule, and how many samples lie above it.
func quantileNS(sorted []uint32, q float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = min(max(i, 0), len(sorted)-1)
	return float64(sorted[i]), len(sorted) - 1 - i
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// totalAlloc returns the cumulative bytes allocated by the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// mb converts a heap difference to MB, clamped at zero.
func mb(after, before uint64) float64 {
	if after < before {
		return 0
	}
	return float64(after-before) / (1 << 20)
}

// countWriter discards what it is given and counts the bytes.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// sampleSetup runs a workload's set-up n more times and appends the
// duration each run reports, in seconds, to samples. Workloads call it
// between repetitions, so the set-up median spans the whole timed
// phase rather than one moment of it.
func sampleSetup(samples []float64, n int, once func() (time.Duration, error)) ([]float64, error) {
	for i := 0; i < n; i++ {
		d, err := once()
		if err != nil {
			return samples, fmt.Errorf("set-up: %w", err)
		}
		samples = append(samples, seconds(d))
	}
	return samples, nil
}

// phase is the timed phase of a run: repetitions continue until its
// budget has passed, and at least one runs.
type phase struct {
	deadline time.Time
	over     bool
}

// Done reports whether the budget has passed. The answer latches, so a
// repetition that asks after its work and sees true is the last one
// and can take end-of-phase measurements while its state is live.
func (p *phase) Done() bool {
	if !p.over {
		p.over = !time.Now().Before(p.deadline)
	}
	return p.over
}

// counts reports whether repetition i is measured: the first warms the
// caches and the heap and is left out, unless it is the only one.
func (p *phase) counts(i int) bool { return i > 0 || p.Done() }

// runPhase calls rep until the budget has passed.
func runPhase(budget time.Duration, rep func(i int, p *phase)) {
	p := &phase{deadline: time.Now().Add(budget)}
	for i := 0; ; i++ {
		rep(i, p)
		if p.Done() {
			return
		}
	}
}
