package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer of the program, recorded from
// the benchmark's side of the call. Counts hold the work the call did,
// taken at the same boundary, so a ratio of two counts is measured
// where the work happened.
type Span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 = root
	Run    string             `json:"run"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"start_ns"`
	End    time.Duration      `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil Recorder
// records nothing, which is how the untraced runs call the same code.
type Recorder struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts a recorder whose spans all carry run as their
// run id.
func NewRecorder(run string) *Recorder {
	return &Recorder{run: run, epoch: time.Now()}
}

// Start opens a span under parent and returns its id.
func (r *Recorder) Start(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Run: r.run, Name: name, Start: now})
	return len(r.spans)
}

// End closes span id and attaches counts given as name, value pairs.
func (r *Recorder) End(id int, counts ...any) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	for i := 0; i+1 < len(counts); i += 2 {
		if s.Counts == nil {
			s.Counts = make(map[string]float64)
		}
		s.Counts[counts[i].(string)] = toFloat(counts[i+1])
	}
}

func toFloat(v any) float64 {
	switch v := v.(type) {
	case int:
		return float64(v)
	case int64:
		return float64(v)
	case float64:
		return v
	}
	panic("perfbench: span count must be int, int64 or float64")
}

// Spans returns a copy of every span recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Get returns span id.
func (r *Recorder) Get(id int) Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1]
}

// Total sums the durations and the named count over every span
// called name.
func (r *Recorder) Total(name, count string) (time.Duration, float64) {
	var d time.Duration
	var n float64
	for _, s := range r.Spans() {
		if s.Name == name {
			d += s.Dur()
			n += s.Counts[count]
		}
	}
	return d, n
}

// Self returns span id's duration minus the part of its interval that
// its children cover. Children may overlap one another; their union
// is what is subtracted.
func (r *Recorder) Self(id int) time.Duration {
	spans := r.Spans()
	parent := spans[id-1]
	var iv [][2]time.Duration
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.Start, parent.Start), min(s.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered time.Duration
	var curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	covered += curHi - curLo
	return parent.Dur() - covered
}

// WriteJSON writes every span, one JSON object per line.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
