package trafficreshape

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (run `go test -bench=. -benchmem`). Each
// BenchmarkTableN/BenchmarkFigureN executes the corresponding
// experiment end to end and reports its headline metrics through
// b.ReportMetric, so `bench_output.txt` doubles as the reproduction
// record:
//
//	accuracy_pct  — mean classification accuracy of the condition
//	overhead_pct  — byte overhead of the defense, where applicable
//
// Micro-benchmarks at the bottom back the §V-B O(N) scalability claim.

import (
	"runtime"
	"testing"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/defense"
	"trafficreshape/internal/experiments"
	"trafficreshape/internal/features"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/par"
	"trafficreshape/internal/reshape"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// benchDataset caches one quick dataset across benchmarks.
var benchDS *experiments.Dataset

func dataset(b *testing.B) *experiments.Dataset {
	b.Helper()
	if benchDS == nil {
		ds, err := experiments.BuildDataset(experiments.QuickConfig(5 * time.Second))
		if err != nil {
			b.Fatal(err)
		}
		benchDS = ds
	}
	return benchDS
}

func runExperiment(b *testing.B, name string, report map[string]string) {
	b.Helper()
	ds := dataset(b)
	runner, err := experiments.RunnerByName(name)
	if err != nil {
		b.Fatal(err)
	}
	var res *experiments.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = runner.Run(ds, ds.Cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for metric, as := range report {
		b.ReportMetric(res.Metric(metric)*100, as)
	}
}

// BenchmarkFigure1PacketSizePDF regenerates Figure 1: the packet-size
// distributions of the seven applications.
func BenchmarkFigure1PacketSizePDF(b *testing.B) {
	runExperiment(b, "fig1", map[string]string{
		"large_mode/do.": "do_large_mode_pct",
		"small_mode/up.": "up_small_mode_pct",
	})
}

// BenchmarkFigure2Configuration regenerates Figure 2: the four-step
// encrypted virtual-interface configuration protocol over the air.
func BenchmarkFigure2Configuration(b *testing.B) {
	runExperiment(b, "fig2", map[string]string{"interfaces": "interfaces_x100"})
}

// BenchmarkFigure3DataPath regenerates Figure 3: the reshaped data
// path with AP/client address translation.
func BenchmarkFigure3DataPath(b *testing.B) {
	runExperiment(b, "fig3", nil)
}

// BenchmarkFigure4ORByRange regenerates Figure 4: OR scheduling of a
// BitTorrent flow by packet-size ranges.
func BenchmarkFigure4ORByRange(b *testing.B) {
	runExperiment(b, "fig4", nil)
}

// BenchmarkFigure5ORByModulo regenerates Figure 5: OR's modulo
// variant on the same flow.
func BenchmarkFigure5ORByModulo(b *testing.B) {
	runExperiment(b, "fig5", nil)
}

// BenchmarkTable1Features regenerates Table I: per-interface feature
// shifts under OR.
func BenchmarkTable1Features(b *testing.B) {
	runExperiment(b, "table1", nil)
}

// BenchmarkTable2AccuracyW5 regenerates Table II: classification
// accuracy per scheme at W = 5 s. Paper: Original 83.24, FH 75.23,
// RA 76.20, RR 76.70, OR 43.69.
func BenchmarkTable2AccuracyW5(b *testing.B) {
	runExperiment(b, "table2", map[string]string{
		"mean/Original": "orig_acc_pct",
		"mean/FH":       "fh_acc_pct",
		"mean/RA":       "ra_acc_pct",
		"mean/RR":       "rr_acc_pct",
		"mean/OR":       "or_acc_pct",
	})
}

// BenchmarkTable3AccuracyW60 regenerates Table III: the same sweep at
// W = 60 s. Paper: Original 91.86, OR 44.49.
func BenchmarkTable3AccuracyW60(b *testing.B) {
	runExperiment(b, "table3", map[string]string{
		"mean/Original": "orig_acc_pct",
		"mean/OR":       "or_acc_pct",
	})
}

// BenchmarkTable4FalsePositives regenerates Table IV: FP rates,
// original vs OR. Paper means: 2.80 vs 9.38 (W=5s).
func BenchmarkTable4FalsePositives(b *testing.B) {
	runExperiment(b, "table4", map[string]string{
		"fp5/orig/mean": "fp5_orig_pct",
		"fp5/or/mean":   "fp5_or_pct",
	})
}

// BenchmarkTable5InterfaceSweep regenerates Table V: OR accuracy for
// I ∈ {2, 3, 5}. Paper means: 49.89, 43.69, 42.79.
func BenchmarkTable5InterfaceSweep(b *testing.B) {
	runExperiment(b, "table5", map[string]string{
		"mean/I2": "i2_acc_pct",
		"mean/I3": "i3_acc_pct",
		"mean/I5": "i5_acc_pct",
	})
}

// BenchmarkTable6Efficiency regenerates Table VI: timing-attack
// accuracy and byte overheads of padding vs morphing. Paper means:
// accuracy 71.18, padding 121.42%, morphing 39.44%.
func BenchmarkTable6Efficiency(b *testing.B) {
	runExperiment(b, "table6", map[string]string{
		"mean/acc":            "timing_acc_pct",
		"mean/pad_overhead":   "pad_overhead_pct",
		"mean/morph_overhead": "morph_overhead_pct",
	})
}

// BenchmarkRSSILinkingTPC regenerates the §V-A extension: RSSI
// linking success with and without per-interface TPC.
func BenchmarkRSSILinkingTPC(b *testing.B) {
	runExperiment(b, "rssi", map[string]string{
		"link/plain": "link_plain_pct",
		"link/tpc":   "link_tpc_pct",
	})
}

// BenchmarkCombinedReshapeMorph regenerates the §V-C extension:
// OR combined with per-interface morphing.
func BenchmarkCombinedReshapeMorph(b *testing.B) {
	runExperiment(b, "combined", map[string]string{
		"mean/or":       "or_acc_pct",
		"mean/combined": "combined_acc_pct",
	})
}

// BenchmarkSplittingExtension regenerates the §V-C packet-splitting
// variant: OR plus fragmentation of everything above 500 bytes.
func BenchmarkSplittingExtension(b *testing.B) {
	runExperiment(b, "splitting", map[string]string{
		"mean/or":    "or_acc_pct",
		"mean/split": "split_acc_pct",
	})
}

// BenchmarkPolicyAblation regenerates the scheduling-policy ablation
// (§III-C2's "different scheduling policies" remark, quantified).
func BenchmarkPolicyAblation(b *testing.B) {
	runExperiment(b, "policy-ablation", map[string]string{
		"mean/p0": "paper_ranges_acc_pct",
		"mean/p2": "modulo3_acc_pct",
	})
}

// BenchmarkAttackerAblation regenerates the per-family attacker
// comparison, including the timing-keyed decision tree.
func BenchmarkAttackerAblation(b *testing.B) {
	runExperiment(b, "attacker-ablation", map[string]string{
		"or/knn":  "knn_or_acc_pct",
		"or/tree": "tree_or_acc_pct",
	})
}

// BenchmarkSeqLink regenerates the sequence-number linking extension.
func BenchmarkSeqLink(b *testing.B) {
	runExperiment(b, "seqlink", map[string]string{
		"link/shared":    "shared_link_pct",
		"link/per-iface": "per_iface_link_pct",
	})
}

// BenchmarkSchedulerThroughputAdaptive measures the adaptive
// scheduler's per-packet cost (quantile re-derivation amortized).
func BenchmarkSchedulerThroughputAdaptive(b *testing.B) {
	s := reshape.NewAdaptive(3, 500)
	pkts := benchPackets(4096, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Assign(pkts[i%len(pkts)])
	}
}

// --- §V-B scalability micro-benchmarks ---------------------------------------

func benchPackets(n int, seed uint64) []trace.Packet {
	r := stats.NewRNG(seed)
	pkts := make([]trace.Packet, n)
	for i := range pkts {
		pkts[i] = trace.Packet{
			Time: time.Duration(i) * time.Microsecond,
			Size: r.IntRange(28, 1576),
		}
	}
	return pkts
}

// BenchmarkSchedulerThroughputOR measures the per-packet cost of
// Orthogonal Reshaping — the O(N) claim of §V-B.
func BenchmarkSchedulerThroughputOR(b *testing.B) {
	s := reshape.Recommended()
	pkts := benchPackets(4096, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Assign(pkts[i%len(pkts)])
	}
}

// BenchmarkSchedulerThroughputORMod measures the modulo variant.
func BenchmarkSchedulerThroughputORMod(b *testing.B) {
	s := reshape.NewModulo(3)
	pkts := benchPackets(4096, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Assign(pkts[i%len(pkts)])
	}
}

// BenchmarkSchedulerThroughputRA measures the random baseline.
func BenchmarkSchedulerThroughputRA(b *testing.B) {
	s := reshape.NewRandom(3, 3)
	pkts := benchPackets(4096, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Assign(pkts[i%len(pkts)])
	}
}

// BenchmarkApplyPartition measures whole-trace partitioning.
func BenchmarkApplyPartition(b *testing.B) {
	tr := appgen.Generate(trace.BitTorrent, 60*time.Second, 4)
	s := reshape.Recommended()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = reshape.Apply(s, tr)
	}
}

// BenchmarkFeatureExtraction measures per-window feature cost. The
// one-pass extractor must report 0 allocs/op (pinned by the guards in
// hotpath_alloc_test.go and the CI bench job).
func BenchmarkFeatureExtraction(b *testing.B) {
	tr := appgen.Generate(trace.Video, 60*time.Second, 5)
	ws := features.WindowsOf(tr, 5*time.Second)
	if len(ws) == 0 {
		b.Fatal("no windows")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = features.Extract(ws[i%len(ws)])
	}
}

// BenchmarkWindows measures cutting a 60-second flow into
// eavesdropping windows. The zero-copy rewrite allocates only the
// window headers (subslice views), never per-window packet copies.
func BenchmarkWindows(b *testing.B) {
	tr := appgen.Generate(trace.Video, 60*time.Second, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Windows(5*time.Second, 1)
	}
}

// BenchmarkWindowsReuse is the steady-state engine shape: a reused
// scratch buffer and no labeling pass. Must report 0 allocs/op.
func BenchmarkWindowsReuse(b *testing.B) {
	tr := appgen.Generate(trace.Video, 60*time.Second, 5)
	scratch := tr.AppendWindows(nil, 5*time.Second, 1, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = tr.AppendWindows(scratch[:0], 5*time.Second, 1, false)
	}
}

// knnFixture builds a trained kNN over n random standardized-looking
// examples plus a bank of query vectors.
func knnFixture(n int, seed uint64) (ml.Classifier, []features.Vector) {
	r := stats.NewRNG(seed)
	examples := make([]features.Example, n)
	for i := range examples {
		var v features.Vector
		for j := range v {
			v[j] = r.NormFloat64()
		}
		examples[i] = features.Example{X: v, Y: trace.App(i % trace.NumApps)}
	}
	model, err := (&ml.KNNTrainer{K: 5}).Train(examples, seed)
	if err != nil {
		panic(err)
	}
	queries := make([]features.Vector, 64)
	for i := range queries {
		for j := range queries[i] {
			queries[i][j] = r.NormFloat64()
		}
	}
	return model, queries
}

// BenchmarkKNNPredict measures one kNN query over 2000 training
// examples — the single largest CPU sink of the attacker ablation,
// now O(n log k) selection instead of an O(n log n) full sort. Must
// report 0 allocs/op.
func BenchmarkKNNPredict(b *testing.B) {
	model, queries := knnFixture(2000, 17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = model.Predict(queries[i%len(queries)])
	}
}

// BenchmarkHistogramUniformAdd measures per-observation cost on a
// uniform-edge histogram — the O(1) direct-index fast path.
func BenchmarkHistogramUniformAdd(b *testing.B) {
	h := stats.NewHistogram(stats.UniformEdges(0, 1576, 64))
	r := stats.NewRNG(3)
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = r.Float64() * 1600
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(vals[i%len(vals)])
	}
}

// BenchmarkTraceGeneration measures workload synthesis.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = appgen.Generate(trace.BitTorrent, 10*time.Second, uint64(i))
	}
}

// BenchmarkPadding measures the padding baseline's transform cost.
func BenchmarkPadding(b *testing.B) {
	tr := appgen.Generate(trace.Chatting, 300*time.Second, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = defense.Pad(tr, defense.MTU)
	}
}

// BenchmarkMorphing measures the morphing baseline's transform cost.
func BenchmarkMorphing(b *testing.B) {
	src := appgen.Generate(trace.Chatting, 300*time.Second, 7)
	target := appgen.Generate(trace.Gaming, 300*time.Second, 8)
	m, err := defense.NewMorpher(target, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Apply(src)
	}
}

// svmBenchExamples builds the standardized training set the SVM
// benchmarks share.
func svmBenchExamples(b *testing.B) []features.Example {
	b.Helper()
	ds := dataset(b)
	var examples []features.Example
	for _, app := range trace.Apps {
		for _, w := range features.WindowsOf(ds.Test[app], 5*time.Second) {
			w.App = app
			examples = append(examples, features.Example{X: features.Extract(w), Y: app})
		}
	}
	scaler := features.FitScaler(examples)
	return scaler.ApplyAll(examples)
}

// BenchmarkSVMTraining measures adversary training cost.
func BenchmarkSVMTraining(b *testing.B) {
	scaled := svmBenchExamples(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&ml.SVMTrainer{}).Train(scaled, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- PR 4: build-side fast path (SVM training + morphing) --------------------

// BenchmarkSVMTrain measures the scratch-reusing serial trainer — the
// per-cell retraining shape of the grid engine. Must report 0
// allocs/op (the model and all working buffers live in the reused
// scratch); its "before" in BENCH_PR4.json is the pre-PR
// BenchmarkSVMTraining implementation.
func BenchmarkSVMTrain(b *testing.B) {
	scaled := svmBenchExamples(b)
	scratch := ml.NewSVMScratch()
	trainer := &ml.SVMTrainer{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trainer.TrainScratch(scratch, scaled, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVMTrainParallel trains the NumApps one-vs-rest machines
// over a shared pool — bit-identical to the serial path, wall-clock
// bounded by NumApps-way parallelism (parity on a 1-vCPU runner).
func BenchmarkSVMTrainParallel(b *testing.B) {
	scaled := svmBenchExamples(b)
	scratch := ml.NewSVMScratch()
	trainer := (&ml.SVMTrainer{}).WithPool(par.NewPool(runtime.NumCPU()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trainer.TrainScratch(scratch, scaled, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- PR 10: MLP training + inference fast path --------------------------------

// BenchmarkMLPTrain measures the scratch-reusing serial MLP trainer —
// the network half of per-cell adversary retraining. Must report 0
// allocs/op (model, velocities, activations and the shuffle buffer all
// live in the reused scratch); its "before" in BENCH_PR10.json is the
// pre-PR per-step-allocating implementation.
func BenchmarkMLPTrain(b *testing.B) {
	scaled := svmBenchExamples(b)
	scratch := ml.NewMLPScratch()
	trainer := &ml.MLPTrainer{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trainer.TrainScratch(scratch, scaled, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLPPredict measures one network inference. Must report 0
// allocs/op: the activation scratch lives on the caller's stack, so
// the MLP joins kNN under the hot-path guards.
func BenchmarkMLPPredict(b *testing.B) {
	scaled := svmBenchExamples(b)
	model, err := (&ml.MLPTrainer{Epochs: 2}).Train(scaled, 17)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = model.Predict(scaled[i%len(scaled)].X)
	}
}

// morphBenchFixture is the shared source/model pair of the morphing
// benchmarks: a 300 s chatting flow disguised as gaming, the §V
// morphing baseline's heaviest assignment.
func morphBenchFixture(b *testing.B) (*trace.Trace, *defense.MorphModel) {
	b.Helper()
	src := appgen.Generate(trace.Chatting, 300*time.Second, 7)
	target := appgen.Generate(trace.Gaming, 300*time.Second, 8)
	model, err := defense.NewMorphModel(target)
	if err != nil {
		b.Fatal(err)
	}
	return src, model
}

// BenchmarkMorphApply measures whole-trace morphing through the
// precomputed O(1) size table, clone included — the drop-in Apply
// shape; its "before" in BENCH_PR4.json is the pre-PR binary-search
// BenchmarkMorphing implementation.
func BenchmarkMorphApply(b *testing.B) {
	src, model := morphBenchFixture(b)
	m := model.Morpher(9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Apply(src)
	}
}

// BenchmarkMorphApplyReuse is the steady-state scheme shape: morphed
// packets appended into a reused destination trace. Must report 0
// allocs/op.
func BenchmarkMorphApplyReuse(b *testing.B) {
	src, model := morphBenchFixture(b)
	m := model.Morpher(9)
	dst := m.AppendApply(trace.New(src.Len()), src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Packets = dst.Packets[:0]
		_ = m.AppendApply(dst, src)
	}
}

// --- Concurrent sharded experiment engine ------------------------------------

// benchTable2Grid measures the Table II evaluation grid — the 5
// schemes × 7 applications of the paper's central table, every cell
// attacked by all four classifier families — through the engine at a
// given pool size. Workers1 is the serial path; the ratio between
// Workers1 and the multi-worker runs is the engine's measured
// speedup (shard randomness is SplitAt-derived, so every variant
// computes bit-identical confusions).
func benchTable2Grid(b *testing.B, workers int) {
	ds := dataset(b)
	eng := experiments.NewEngine(workers)
	schemes := experiments.StandardSchemes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		confs := eng.EvalSchemes(ds, schemes)
		if len(confs) != len(schemes) {
			b.Fatalf("grid returned %d confusions, want %d", len(confs), len(schemes))
		}
	}
}

func BenchmarkTable2GridWorkers1(b *testing.B) { benchTable2Grid(b, 1) }
func BenchmarkTable2GridWorkers2(b *testing.B) { benchTable2Grid(b, 2) }
func BenchmarkTable2GridWorkers4(b *testing.B) { benchTable2Grid(b, 4) }
func BenchmarkTable2GridWorkers8(b *testing.B) { benchTable2Grid(b, 8) }
func BenchmarkTable2GridAllCPUs(b *testing.B)  { benchTable2Grid(b, runtime.NumCPU()) }

// benchDatasetBuild measures the other hot phase the engine shards:
// workload synthesis plus per-family adversary training.
func benchDatasetBuild(b *testing.B, workers int) {
	cfg := experiments.QuickConfig(5 * time.Second)
	eng := experiments.NewEngine(workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.BuildDataset(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDatasetBuildWorkers1(b *testing.B) { benchDatasetBuild(b, 1) }
func BenchmarkDatasetBuildWorkers4(b *testing.B) { benchDatasetBuild(b, 4) }
func BenchmarkDatasetBuildAllCPUs(b *testing.B)  { benchDatasetBuild(b, runtime.NumCPU()) }
