package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/attack"
	"trafficreshape/internal/experiments"
	"trafficreshape/internal/mac"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/par"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// runTraced is the separate traced run. It walks every layer of the
// system at the workload seed, whichever workload is named, so every
// per-layer metric is measured on every traced run:
//
//   - the quick evaluation on a serial engine, once untraced and once
//     with a span per runner and per grid cell;
//   - the primary dataset and the Table II grid decomposed into the
//     public calls of each layer (generate, merge, train, partition,
//     window, predict), checked against EvalCell;
//   - the grid on a 2-worker fleet, with the wire bytes counted;
//   - the daemon-replay and daemon-churn scenarios with a span per
//     daemon stage.
//
// Spans go to opt.Spans. Nothing here feeds the end-to-end metrics.
func runTraced(opt Options) (*Result, error) {
	rec := NewRecorder(fmt.Sprintf("%s/seed=%d", opt.Workload, opt.Seed))
	res := newResult()
	cfg := quickConfig(opt.Seed)
	ref, err := traceGrid(cfg, rec, res)
	if err != nil {
		return nil, err
	}
	if err := traceLayers(cfg, ref, rec, res); err != nil {
		return nil, err
	}
	if err := traceFleet(cfg, ref.digest(), rec, res); err != nil {
		return nil, err
	}
	if err := traceDaemons(opt, rec, res); err != nil {
		return nil, err
	}
	if err := writeSpans(opt.Spans, rec); err != nil {
		return nil, err
	}
	return res, nil
}

func writeSpans(path string, rec *Recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// overheadPairs is how many untraced and traced renderings the
// tracing overhead is the median difference of.
const overheadPairs = 3

// traceGrid renders the serial quick evaluation once as a warm-up that
// is the reference, then alternately untraced and traced; the last
// traced rendering's spans are kept. It returns the reference, whose
// dataset the decomposition checks against.
func traceGrid(cfg experiments.Config, rec *Recorder, res *Result) (*gridReport, error) {
	ref, err := renderGrid(experiments.NewEngine(1), cfg, nil, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	var untraced, traced []float64
	var root int
	for i := 0; i < overheadPairs; i++ {
		// Every timed rendering starts from the same live heap (the
		// reference), so the collector paces them alike.
		runtime.GC()
		t0 := time.Now()
		g, err := renderGrid(experiments.NewEngine(1), cfg, nil, 0, nil)
		untraced = append(untraced, seconds(time.Since(t0)))
		res.gate(gridGate(g, err, ref.digest()), 1)
		g = nil
		runtime.GC()

		r := NewRecorder("discarded")
		if i == overheadPairs-1 {
			r = rec
		}
		tb := &tracingBackend{rec: r}
		root = r.Start("experiments.report", 0)
		g, err = renderGrid(experiments.NewEngine(1).WithBackend(tb), cfg, r, root, tb.setParent)
		r.End(root)
		traced = append(traced, seconds(r.Get(root).Dur()))
		res.gate(gridGate(g, err, ref.digest()), 1)
	}

	report := rec.Get(root).Dur()
	var runners time.Duration
	for _, r := range experiments.Registry() {
		d, _ := rec.Total("experiments.runner."+r.Name, "")
		runners += d
		res.set("experiments.runner_s."+r.Name, seconds(d), "s")
	}
	build, _ := rec.Total("experiments.build_dataset", "")
	cell, cells := rec.Total("experiments.cell", "cells")
	// The layer's time outside the runners: the report span's own time
	// plus the primary BuildDataset, a call into the same layer.
	self := rec.Self(root) + build
	res.set("experiments.report_s", seconds(report), "s")
	overhead := median(traced) - median(untraced)
	res.set("experiments.untraced_report_s", median(untraced), "s")
	res.set("experiments.trace_overhead_s", overhead, "s")
	res.set("experiments.build_dataset_s", seconds(build), "s")
	res.set("experiments.self_s", seconds(self), "s")
	res.set("experiments.cell_s", seconds(cell), "s")
	res.set("experiments.cells", cells, "count")
	fmt.Printf("trace grid: report %.3fs = runners %.3fs + self %.3fs (self holds the primary build %.3fs)\n",
		seconds(report), seconds(runners), seconds(self), seconds(build))
	fmt.Printf("trace grid: median of %d renderings: untraced %.3fs, traced %.3fs, tracing overhead %+.3fs\n",
		overheadPairs, median(untraced), median(traced), overhead)
	return ref, nil
}

// traceLayers decomposes the primary dataset and the Table II grid
// into the public calls of each layer, in pipeline order, and checks
// that the parts reproduce EvalCell's confusion matrices on ref's
// dataset.
func traceLayers(cfg experiments.Config, ref *gridReport, rec *Recorder, res *Result) error {
	root := rec.Start("layers", 0)
	defer rec.End(root)

	// generate: the primary train and test traffic, as BuildDataset
	// derives it.
	a0 := totalAlloc()
	gen := func(d time.Duration, seed uint64) map[trace.App]*trace.Trace {
		out := make(map[trace.App]*trace.Trace, trace.NumApps)
		for _, app := range trace.Apps {
			sp := rec.Start("appgen.generate", root)
			tr := appgen.Generate(app, d, appgen.AppSeed(seed, app))
			rec.End(sp, "packets", tr.Len())
			out[app] = tr
		}
		return out
	}
	train := gen(cfg.TrainDuration, cfg.Seed)
	test := gen(cfg.TestDuration, cfg.Seed^0x5eed)
	res.set("appgen.alloc_mb", mb(totalAlloc(), a0), "MB")

	// merge: the same down/up pairs Generate merged.
	mergeOK := true
	a0 = totalAlloc()
	for _, set := range []map[trace.App]*trace.Trace{train, test} {
		for _, app := range trace.Apps {
			down, up := set[app].ByDirection()
			sp := rec.Start("trace.merge", root)
			m := trace.Merge(down, up)
			rec.End(sp, "packets", m.Len())
			mergeOK = mergeOK && slices.Equal(m.Packets, set[app].Packets)
		}
	}
	res.set("trace.merge_alloc_mb", mb(totalAlloc(), a0), "MB")
	for _, app := range trace.Apps {
		mergeOK = mergeOK && slices.Equal(test[app].Packets, ref.ds.Test[app].Packets)
	}
	res.gate(mergeOK, 1)

	// train: each family serially, then with a 2-permit pool.
	opt := attack.TrainOptions{W: cfg.W, Seed: cfg.Seed ^ 0xbeef}
	var clfs []*attack.Classifier
	for i, t := range ml.Trainers() {
		o := opt
		o.Trainer = t
		sp := rec.Start("ml.train."+t.Name(), root)
		clf, err := attack.Train(train, o)
		rec.End(sp)
		if err != nil {
			return err
		}
		clfs = append(clfs, clf)
		o.Trainer = ml.Trainers()[i]
		o.Pool = par.NewPool(2)
		sp = rec.Start("ml.train."+t.Name()+".pool2", root)
		_, err = attack.Train(train, o)
		rec.End(sp)
		if err != nil {
			return err
		}
	}

	// partition, window, predict: the 35 Table II cells.
	cellsOK := true
	var partAlloc uint64
	for _, s := range experiments.StandardSchemes() {
		for _, app := range trace.Apps {
			r := cellRNG(cfg.Seed, s.Name, app)
			addrRNG := r.SplitAt(0)
			a0 := totalAlloc()
			sp := rec.Start("reshape.apply", root)
			parts := s.Partition(app, test[app], r.SplitAt(1))
			n := 0
			for _, p := range parts {
				n += p.Len()
			}
			rec.End(sp, "packets", n)
			partAlloc += totalAlloc() - a0
			flows := make(map[mac.Address]*trace.Trace, len(parts))
			truth := make(map[mac.Address]trace.App, len(parts))
			for _, p := range parts {
				addr := mac.RandomAddress(addrRNG)
				flows[addr], truth[addr] = p, app
			}
			sp = rec.Start("attack.window", root)
			fw := attack.WindowFlows(flows, truth, cfg.W)
			rec.End(sp, "windows", len(fw.X))
			want := experiments.EvalCell(ref.ds, s, app)
			for fi, clf := range clfs {
				sp = rec.Start("attack.predict", root)
				conf := clf.AttackWindowed(fw)
				rec.End(sp, "predictions", len(fw.X))
				cellsOK = cellsOK && *conf == *want[fi]
			}
		}
	}
	res.gate(cellsOK, 1)
	res.set("reshape.alloc_mb", float64(partAlloc)/(1<<20), "MB")

	// Each stage's time, its count, and its share of the traced report.
	stages := []struct{ layer, stage, count string }{
		{"appgen", "generate", "packets"},
		{"trace", "merge", ""},
		{"reshape", "apply", "packets"},
		{"attack", "window", "windows"},
		{"attack", "predict", "predictions"},
	}
	report := res.Metrics["experiments.report_s"].Value
	for _, st := range stages {
		span := st.layer + "." + st.stage
		d, n := rec.Total(span, st.count)
		res.set(span+"_s", seconds(d), "s")
		if st.count != "" {
			res.set(st.layer+"."+st.count, n, "count")
		}
		fmt.Printf("stage %-16s %8.3fs  %5.1f%% of report_s\n", span, seconds(d), 100*seconds(d)/report)
	}
	var trainSerial time.Duration
	for _, t := range ml.Trainers() {
		d, _ := rec.Total("ml.train."+t.Name(), "")
		d2, _ := rec.Total("ml.train."+t.Name()+".pool2", "")
		trainSerial += d
		res.set("ml.train_s."+t.Name(), seconds(d), "s")
		res.set("ml.train_s."+t.Name()+".pool2", seconds(d2), "s")
	}
	fmt.Printf("stage %-16s %8.3fs  %5.1f%% of report_s\n", "ml.train", seconds(trainSerial), 100*seconds(trainSerial)/report)
	return nil
}

// cellRNG is the private random stream of one (scheme, app) grid cell,
// derived exactly as the experiments engine derives it: FNV-1a over the
// scheme name, folded into the master seed, split by application.
func cellRNG(seed uint64, scheme string, app trace.App) *stats.RNG {
	h := uint64(14695981039346656037)
	for i := 0; i < len(scheme); i++ {
		h ^= uint64(scheme[i])
		h *= 1099511628211
	}
	return stats.NewRNG(seed ^ 0xface ^ h).SplitAt(uint64(app))
}

// traceFleet runs the grid on a fleet of two loopback workers with
// the wire counted, and records the coordinator's counters at the
// report boundary.
func traceFleet(cfg experiments.Config, ref [32]byte, rec *Recorder, res *Result) error {
	root := rec.Start("dist.fleet", 0)
	defer rec.End(root)
	sp := rec.Start("dist.setup", root)
	eng := experiments.NewEngine(1)
	fl, err := startFleet(eng.Pool())
	rec.End(sp)
	if err != nil {
		return err
	}
	handshake := rec.Get(sp).Dur()
	wire0 := fl.wire.Load()
	sp = rec.Start("dist.report", root)
	g, err := renderGrid(eng.WithBackend(fl.coord), cfg, nil, 0, nil)
	st := fl.coord.Stats()
	wire := fl.wire.Load() - wire0
	rec.End(sp, "remote_cells", st.RemoteCells, "local_cells", st.LocalCells, "reassigned", st.Reassigned,
		"cache_hits", st.RemoteCacheHits, "batches_sent", st.BatchesSent, "batched_cells", st.BatchedCells,
		"max_queue_depth", st.MaxQueueDepth, "wire_bytes", wire)
	res.gate(gridGate(g, err, ref), 1)
	if err := fl.stop(); err != nil {
		return err
	}
	c := rec.Get(sp).Counts
	res.set("dist.report_s", seconds(rec.Get(sp).Dur()), "s")
	res.set("dist.handshake_ms", float64(handshake)/1e6, "ms")
	for _, k := range []string{"remote_cells", "local_cells", "reassigned", "cache_hits", "batches_sent", "batched_cells", "max_queue_depth"} {
		res.set("dist."+k, c[k], "count")
	}
	res.set("dist.cells_per_batch", ratio(c["batched_cells"], c["batches_sent"]), "ratio")
	res.set("dist.wire_bytes_per_cell", ratio(c["wire_bytes"], c["remote_cells"]), "B")
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceDaemons runs both daemon scenarios with a span per stage.
func traceDaemons(opt Options, rec *Recorder, res *Result) error {
	size := sizeOf(opt)
	replay, err := newDaemonInputs(replayCapture(size.replay, opt.Seed), opt.Seed, 1)
	if err != nil {
		return err
	}
	root := rec.Start("stream.replay", 0)
	r, err := replay.replay(0, nil, rec, root)
	rec.End(root)
	if err != nil {
		return err
	}
	ok, _ := daemonGate(r.report, r.out, replay.ref, replay.capture.Len())
	res.gate(ok, 1)
	audit, _ := rec.Total("stream.audit_train", "")
	res.set("stream.audit_train_s", seconds(audit), "s")
	daemonLayer("stream.replay.", rec, root, r, res)

	// The per-Assign latencies come from a second replay, outside the
	// spans: its two clock reads per packet would inflate ingest.
	lat := make([]uint32, replay.capture.Len())
	r, err = replay.replay(0, lat, nil, 0)
	if err != nil {
		return err
	}
	ok, _ = daemonGate(r.report, r.out, replay.ref, replay.capture.Len())
	res.gate(ok, 1)
	slices.Sort(lat)
	p50, _ := quantileNS(lat, 0.5)
	p9999, beyond := quantileNS(lat, 0.9999)
	res.set("stream.replay.assign_p50_ns", p50, "ns")
	res.set("stream.replay.assign_p9999_us", p9999/1e3, "us")
	fmt.Printf("trace replay: Assign latency over %d samples, %d beyond p99.99\n", len(lat), beyond)

	// The audit kNN over the capture's W-windows, one flow at a time.
	cls, err := trainAudit(replay.training)
	if err != nil {
		return err
	}
	var wins []trace.Window
	for _, tr := range replay.capture.ByMAC() {
		wins = tr.AppendWindows(wins, daemonW, 1, false)
	}
	sp := rec.Start("attack.classify", 0)
	for _, w := range wins {
		cls.Classify(w)
	}
	rec.End(sp, "windows", len(wins))
	res.set("attack.classify_us", float64(rec.Get(sp).Dur())/1e3/float64(max(len(wins), 1)), "us")

	churn, err := newDaemonInputs(churnCapture(size.churnFlows, opt.Seed), opt.Seed, 0)
	if err != nil {
		return err
	}
	heap0 := liveHeap()
	root = rec.Start("stream.churn", 0)
	r, err = churn.replay(1, nil, rec, root)
	rec.End(root)
	if err != nil {
		return err
	}
	heap := liveHeap()
	runtime.KeepAlive(r.engine)
	ok, _ = daemonGate(r.report, r.out, churn.ref, churn.capture.Len())
	res.gate(ok, 1)
	daemonLayer("stream.churn.", rec, root, r, res)
	res.set("stream.churn.heap_kb_per_flow", mb(heap, heap0)*1024/float64(max(len(r.report.Flows), 1)), "KB")
	res.set("vmac.granted", float64(granted(r.report)), "count")
	return nil
}

// daemonLayer turns one traced daemon run's spans into metrics.
func daemonLayer(prefix string, rec *Recorder, root int, r *daemonRun, res *Result) {
	dur := map[string]time.Duration{}
	var drain Span
	for _, s := range rec.Spans() {
		if s.Parent == root {
			dur[s.Name] += s.Dur()
			if s.Name == "stream.drain" {
				drain = s
			}
		}
	}
	c := drain.Counts
	res.set(prefix+"new_ms", float64(dur["stream.new"])/1e6, "ms")
	res.set(prefix+"ingest_ns", float64(dur["stream.ingest"])/max(c["offered"], 1), "ns")
	res.set(prefix+"ckpt_ms", float64(dur["stream.checkpoint"])/1e6, "ms")
	res.set(prefix+"ckpt_kb", float64(r.ckptB)/1024, "KB")
	res.set(prefix+"drain_ms", float64(dur["stream.drain"])/1e6, "ms")
	res.set(prefix+"pkts_per_s", c["packets"]/seconds(dur["stream.ingest"]+dur["stream.drain"]), "pkt/s")
	for _, k := range []string{"flows", "windows", "classified", "leaked", "escalations", "shed", "stalled", "lost"} {
		res.set(prefix+k, c[k], "count")
	}
	res.set(prefix+"leak_frac", ratio(c["leaked"], c["classified"]), "ratio")
}
