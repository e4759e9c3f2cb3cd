package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"trafficreshape/internal/experiments"
	"trafficreshape/internal/stream"
)

// benchSpec is the part of BENCHMARK.json the self-test checks
// against: every metric's name and unit.
type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func checkMetrics(t *testing.T, res *Result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("gates: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("got %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
	}
}

// TestWorkloads runs every workload once at a tiny size and checks
// that it passes its output gates and emits every end-to-end metric
// with its unit, each above zero.
func TestWorkloads(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			run, ok := workloads[w.Name]
			if !ok {
				t.Fatalf("no workload %q", w.Name)
			}
			res, err := run(Options{Workload: w.Name, Seed: 3, Small: true})
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, spec.EndToEnd)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("metric %s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

// TestTraced runs the traced run at a tiny size: every per-layer metric
// is emitted with its unit, the decomposition reproduces EvalCell, and
// the runner spans plus self time add up to the traced report.
func TestTraced(t *testing.T) {
	spec := loadSpec(t)
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	res, err := runTraced(Options{Workload: "grid-quick", Seed: 3, Small: true, Spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, res, spec.PerLayer)
	sum := res.Metrics["experiments.self_s"].Value
	for _, r := range experiments.Registry() {
		sum += res.Metrics["experiments.runner_s."+r.Name].Value
	}
	if report := res.Metrics["experiments.report_s"].Value; math.Abs(sum-report) > 1e-6 {
		t.Errorf("runner spans + self = %v, traced report_s = %v", sum, report)
	}
	data, err := os.ReadFile(spans)
	if err != nil || !bytes.Contains(data, []byte(`"name":"experiments.cell"`)) {
		t.Errorf("span file lacks the grid cells: %v", err)
	}
}

// TestGridMatchesRunAll pins the benchmark's rendering of the grid to
// the program's own: at seed 42 its bytes equal RunAll's quick output.
func TestGridMatchesRunAll(t *testing.T) {
	var want bytes.Buffer
	if _, err := experiments.NewEngine(2).RunAll(&want, true); err != nil {
		t.Fatal(err)
	}
	g, err := renderGrid(experiments.NewEngine(2), quickConfig(42), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.text, want.Bytes()) {
		t.Error("the benchmark's quick evaluation differs from Engine.RunAll at seed 42")
	}
}

// TestCorruptedOutputFails checks that each output gate counts a
// deliberately corrupted output as a failed operation.
func TestCorruptedOutputFails(t *testing.T) {
	g := &gridReport{text: []byte("==== fig1 ====\nok\n")}
	ref := g.digest()
	if !gridGate(g, nil, ref) {
		t.Fatal("grid gate rejects an intact report")
	}
	bad := &gridReport{text: bytes.Replace(g.text, []byte("ok"), []byte("ko"), 1)}
	res := newResult()
	res.gate(gridGate(bad, nil, ref), 1)
	if res.Correct || res.Failed != 1 || res.Attempted != 1 {
		t.Errorf("corrupted grid report: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}

	in, err := newDaemonInputs(replayCapture(20*time.Second, 5), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := in.replay(0, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := in.capture.Len()
	if ok, _ := daemonGate(r.report, r.out, in.ref, n); !ok {
		t.Fatal("daemon gate rejects an intact report")
	}
	out := bytes.Clone(r.out)
	out[len(out)/2] ^= 1
	if ok, _ := daemonGate(r.report, out, in.ref, n); ok {
		t.Error("daemon gate accepts a corrupted report")
	}
	lossy := *r.report
	lossy.Packets--
	if ok, _ := daemonGate(&lossy, r.out, in.ref, n); ok {
		t.Error("daemon gate accepts a report that loses a packet")
	}
	shed := stream.Report{Offered: int64(n), Packets: int64(n) - 2, Shed: 2}
	if ok, failed := daemonGate(&shed, in.ref, in.ref, n); !ok || failed != 2 {
		t.Errorf("shed packets: ok=%v failed=%d, want conserved with 2 failed", ok, failed)
	}
}

// TestSelfTime checks self time against overlapping children.
func TestSelfTime(t *testing.T) {
	r := NewRecorder("test")
	r.spans = []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "grandchild", Start: 10, End: 20},
	}
	if got := r.Self(1); got != 50 {
		t.Errorf("root self = %v, want 50 (children cover 10-50 and 90-100)", got)
	}
	if got := r.Self(2); got != 20 {
		t.Errorf("a self = %v, want 20", got)
	}
}
