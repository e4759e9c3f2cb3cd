package dist_test

// End-to-end contracts of the distributed backend, all variants of
// one statement: a grid evaluated by any fleet — in-process workers,
// real worker processes, workers that die mid-cell, no workers at
// all — produces results byte-identical to the serial engine.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/dist"
	"trafficreshape/internal/experiments"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/reshape"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// TestMain doubles as the worker executable: re-running the test
// binary with DIST_TEST_WORKER_ADDR set turns it into a real worker
// process, which is how the *WorkerProcesses tests get genuine
// multi-process coverage without shelling out to the go tool.
// DIST_TEST_SLOTS sets the worker's slot count (0 keeps the default).
// DIST_TEST_KEY and DIST_TEST_TLS=insecure configure the subprocess
// for the authenticated/encrypted fleet tests: the worker cannot know
// the parent's ephemeral self-signed certificate, so it encrypts
// without server verification and proves itself through the HMAC
// challenge — the same posture as cmd/expworker -dist-tls-insecure.
func TestMain(m *testing.M) {
	if addr := os.Getenv("DIST_TEST_WORKER_ADDR"); addr != "" {
		maxCells, _ := strconv.Atoi(os.Getenv("DIST_TEST_MAX_CELLS"))
		slots, _ := strconv.Atoi(os.Getenv("DIST_TEST_SLOTS"))
		opt := dist.WorkerOptions{
			Slots:         slots,
			EngineWorkers: 2,
			MaxCells:      maxCells,
			Net:           dist.NetOptions{AuthKey: os.Getenv("DIST_TEST_KEY")},
		}
		if os.Getenv("DIST_TEST_TLS") == "insecure" {
			tlsCfg, err := dist.ClientTLS("", true)
			if err != nil {
				fmt.Fprintln(os.Stderr, "worker tls:", err)
				os.Exit(1)
			}
			opt.Net.TLS = tlsCfg
		}
		err := dist.Serve(addr, opt)
		if err != nil && !errors.Is(err, dist.ErrMaxCells) {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// distCfg is the shared grid configuration: small enough that every
// worker process can afford its own dataset build, big enough that
// the classifiers see real windows.
func distCfg() experiments.Config {
	cfg := experiments.QuickConfig(5 * time.Second)
	cfg.TrainDuration /= 2
	cfg.TestDuration /= 2
	return cfg
}

// serialGrid computes the reference: the standard Tables II grid on
// the serial engine.
func serialGrid(t *testing.T, ds *experiments.Dataset) []*ml.Confusion {
	t.Helper()
	return experiments.NewEngine(1).EvalSchemes(ds, experiments.StandardSchemes())
}

var (
	refOnce sync.Once
	refDS   *experiments.Dataset
	refErr  error
)

// sharedDataset builds the test dataset once for every test in the
// package (it is read-only after construction, as the engine's race
// tests pin).
func sharedDataset(t *testing.T) *experiments.Dataset {
	t.Helper()
	refOnce.Do(func() { refDS, refErr = experiments.BuildDataset(distCfg()) })
	if refErr != nil {
		t.Fatal(refErr)
	}
	return refDS
}

func sameConfusions(t *testing.T, label string, want, got []*ml.Confusion) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: distributed grid diverged from serial", label)
		for i := range want {
			if i < len(got) && !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("%s: scheme %d:\nserial:\n%v\ndist:\n%v", label, i, want[i], got[i])
			}
		}
	}
}

// startWorker runs an in-process worker (real TCP, same process) and
// returns a join func.
func startWorker(t *testing.T, addr string, opt dist.WorkerOptions) func() error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- dist.Serve(addr, opt) }()
	return func() error { return <-done }
}

// TestGridByteIdenticalInProcess: coordinator + two wire-connected
// workers reproduce the serial grid exactly, with every cell carried
// by the fleet.
func TestGridByteIdenticalInProcess(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{LocalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	for i := 0; i < 2; i++ {
		startWorker(t, coord.Addr(), dist.WorkerOptions{Slots: 2, EngineWorkers: 2})
	}
	if err := coord.WaitWorkers(2, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	eng := experiments.NewEngine(4).WithBackend(coord)
	got := eng.EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "standard grid", want, got)

	stats := coord.Stats()
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)
	if stats.RemoteCells != wantCells {
		t.Errorf("fleet evaluated %d cells, want all %d (local %d, reassigned %d)",
			stats.RemoteCells, wantCells, stats.LocalCells, stats.Reassigned)
	}
}

// TestWorkerDeathReassignment: a worker that dies mid-assignment
// strands its cell; the coordinator must reassign it to the healthy
// worker and the grid must still match serial bit for bit.
func TestWorkerDeathReassignment(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{LocalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// Short-lived worker: answers one cell, then aborts while holding
	// the next assignment. Its two slots put both cells in its first
	// batch, so the abort does not depend on the healthy worker leaving
	// it a second cell. Healthy worker: serves the rest.
	shortLived := startWorker(t, coord.Addr(), dist.WorkerOptions{Slots: 2, EngineWorkers: 2, MaxCells: 1})
	startWorker(t, coord.Addr(), dist.WorkerOptions{Slots: 2, EngineWorkers: 2})
	if err := coord.WaitWorkers(2, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	eng := experiments.NewEngine(4).WithBackend(coord)
	got := eng.EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "grid with dying worker", want, got)

	if err := shortLived(); !errors.Is(err, dist.ErrMaxCells) {
		t.Errorf("short-lived worker exited with %v, want ErrMaxCells", err)
	}
	stats := coord.Stats()
	if stats.WorkersLost == 0 {
		t.Error("coordinator never noticed the worker death")
	}
	if stats.Reassigned == 0 {
		t.Error("stranded cell was not reassigned")
	}
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)
	if stats.RemoteCells+stats.LocalCells != wantCells {
		t.Errorf("%d remote + %d local != %d cells", stats.RemoteCells, stats.LocalCells, wantCells)
	}
}

// TestCellTimeoutReassignment: a wedged-but-alive worker — TCP up,
// requests silently swallowed — holds its cell until the per-cell
// deadline, after which the coordinator must take the cell back, hand
// it to the healthy worker, and still reproduce the serial grid bit
// for bit. This is the failure mode worker-death detection cannot
// see: the connection never breaks.
func TestCellTimeoutReassignment(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{
		LocalWorkers: 2,
		CellTimeout:  500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// Wedged worker: answers one cell, then swallows every later
	// request while staying connected. Its two slots put the swallowed
	// request in its first batch: the grid is queued whole before
	// either dispatcher pops, and the healthy worker's two slots leave
	// far more than two of the cells, so the wedge happens however the
	// two dispatchers interleave. Healthy worker: serves the rest.
	startWorker(t, coord.Addr(), dist.WorkerOptions{Slots: 2, EngineWorkers: 2, WedgeCells: 1})
	startWorker(t, coord.Addr(), dist.WorkerOptions{Slots: 2, EngineWorkers: 2})
	if err := coord.WaitWorkers(2, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	eng := experiments.NewEngine(4).WithBackend(coord)
	got := eng.EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "grid with wedged worker", want, got)

	stats := coord.Stats()
	if stats.TimedOut == 0 {
		t.Errorf("no cell timed out despite the wedged worker: %+v", stats)
	}
	if stats.WorkersLost != 0 {
		t.Errorf("the wedged worker was counted as dead (%+v); its connection never broke", stats)
	}
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)
	if stats.RemoteCells+stats.LocalCells != wantCells {
		t.Errorf("%d remote + %d local != %d cells", stats.RemoteCells, stats.LocalCells, wantCells)
	}
}

// TestCellTimeoutLastWorkerFallsBackLocal: when the wedged worker is
// the entire fleet, a timed-out cell cannot be re-queued — it must
// fail back to the grid, which evaluates it locally, and the grid
// must still complete byte-identical to serial.
func TestCellTimeoutLastWorkerFallsBackLocal(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{
		LocalWorkers: 2,
		CellTimeout:  500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	startWorker(t, coord.Addr(), dist.WorkerOptions{EngineWorkers: 2, WedgeCells: 1})
	if err := coord.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	eng := experiments.NewEngine(2).WithBackend(coord)
	got := eng.EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "grid with only a wedged worker", want, got)

	stats := coord.Stats()
	if stats.TimedOut == 0 {
		t.Errorf("no cell timed out despite the wedged worker: %+v", stats)
	}
	if stats.LocalCells == 0 {
		t.Errorf("timed-out cells were not evaluated locally: %+v", stats)
	}
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)
	if stats.RemoteCells+stats.LocalCells != wantCells {
		t.Errorf("%d remote + %d local != %d cells", stats.RemoteCells, stats.LocalCells, wantCells)
	}
}

// TestNoWorkersFallsBackLocal: a coordinator with an empty fleet is
// just a slower NewLocalBackend — every cell must run in-process and
// still match serial.
func TestNoWorkersFallsBackLocal(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{LocalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	got := experiments.NewEngine(2).WithBackend(coord).EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "empty fleet", want, got)
	stats := coord.Stats()
	if stats.RemoteCells != 0 || stats.LocalCells == 0 {
		t.Errorf("empty fleet placed cells remotely: %+v", stats)
	}
}

// TestUnregisteredSchemeRunsLocal: ad-hoc closure schemes are not
// wire-representable and must be evaluated in-process even when
// workers are available — shipping them by name would evaluate the
// wrong partition.
func TestUnregisteredSchemeRunsLocal(t *testing.T) {
	ds := sharedDataset(t)
	custom := experiments.SchedulerScheme("custom-rr7", func(*stats.RNG) reshape.Scheduler {
		return reshape.NewRoundRobin(7)
	})
	want := experiments.NewEngine(1).EvalSchemes(ds, []experiments.Scheme{custom})

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{LocalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	startWorker(t, coord.Addr(), dist.WorkerOptions{EngineWorkers: 2})
	if err := coord.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	got := experiments.NewEngine(2).WithBackend(coord).EvalSchemes(ds, []experiments.Scheme{custom})
	sameConfusions(t, "unregistered scheme", want, got)
	if stats := coord.Stats(); stats.RemoteCells != 0 || stats.LocalCells != len(trace.Apps) {
		t.Errorf("unregistered scheme was shipped to workers: %+v", stats)
	}
}

// spawnWorkerProcess re-executes the test binary as a real worker
// process (see TestMain). extraEnv appends DIST_TEST_* settings for
// the TLS/auth variants.
func spawnWorkerProcess(t *testing.T, addr string, maxCells int, extraEnv ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"DIST_TEST_WORKER_ADDR="+addr,
		"DIST_TEST_MAX_CELLS="+strconv.Itoa(maxCells))
	cmd.Env = append(cmd.Env, extraEnv...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	return cmd
}

// TestGridByteIdenticalWorkerProcesses is the acceptance pin: the
// grid through coordinator + two real worker processes — one of which
// is killed by its cell budget mid-run and must be reassigned —
// equals the serial grid exactly.
func TestGridByteIdenticalWorkerProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	ds := sharedDataset(t)
	want := serialGrid(t, ds)

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{LocalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// One worker dies after three cells (its fourth assignment is
	// stranded mid-flight); one healthy worker carries the rest. The
	// dying worker's four slots put all four cells in its first batch,
	// and the healthy worker's two slots cannot take the grid from under
	// it, so the death is delivered by construction, not by cell speed.
	spawnWorkerProcess(t, coord.Addr(), 3, "DIST_TEST_SLOTS=4")
	spawnWorkerProcess(t, coord.Addr(), 0, "DIST_TEST_SLOTS=2")
	if err := coord.WaitWorkers(2, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	eng := experiments.NewEngine(4).WithBackend(coord)
	got := eng.EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "worker processes", want, got)

	stats := coord.Stats()
	if stats.RemoteCells == 0 {
		t.Error("no cell was evaluated by the worker processes")
	}
	if stats.WorkersLost == 0 || stats.Reassigned == 0 {
		t.Errorf("expected a mid-run worker death with reassignment, got %+v", stats)
	}
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)
	if stats.RemoteCells+stats.LocalCells != wantCells {
		t.Errorf("%d remote + %d local != %d cells", stats.RemoteCells, stats.LocalCells, wantCells)
	}
}

// TestRunAllDistributedByteIdentical runs the complete experiment
// registry — every table, figure and ablation, including derived
// W = 60 s datasets and the morph/split schemes — through a worker
// fleet and compares the streamed output byte for byte with the
// serial engine.
func TestRunAllDistributedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run is slow")
	}
	var serialOut bytes.Buffer
	serialRes, err := experiments.RunAll(&serialOut, true)
	if err != nil {
		t.Fatal(err)
	}

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{LocalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	for i := 0; i < 2; i++ {
		startWorker(t, coord.Addr(), dist.WorkerOptions{Slots: 2, EngineWorkers: 2})
	}
	if err := coord.WaitWorkers(2, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	var distOut bytes.Buffer
	distRes, err := experiments.NewEngine(4).WithBackend(coord).RunAll(&distOut, true)
	if err != nil {
		t.Fatal(err)
	}
	if serialOut.String() != distOut.String() {
		t.Error("distributed RunAll stream differs from serial")
	}
	if len(serialRes) != len(distRes) {
		t.Fatalf("result counts differ: %d vs %d", len(serialRes), len(distRes))
	}
	for name, sr := range serialRes {
		dr, ok := distRes[name]
		if !ok {
			t.Errorf("distributed run missing %q", name)
			continue
		}
		if sr.Text != dr.Text || !reflect.DeepEqual(sr.Metrics, dr.Metrics) {
			t.Errorf("%s: distributed result differs from serial", name)
		}
	}
	if stats := coord.Stats(); stats.RemoteCells == 0 {
		t.Errorf("full registry run placed no cells on the fleet: %+v", stats)
	}
}

// capturedSet fabricates "captured" traffic: traces generated with
// seeds the Config does not know, so they are non-regenerable from
// the cell request alone — workers can only obtain them through the
// preload frames. Video is captured on both roles, uploading on the
// test side only; the other applications stay synthetic, so every
// grid over this set mixes captured and synthetic cells.
func capturedSet(cfg experiments.Config) *experiments.TraceSet {
	return &experiments.TraceSet{
		Train: map[trace.App]*trace.Trace{
			trace.Video: appgen.Generate(trace.Video, cfg.TrainDuration, 0xabcde),
		},
		Test: map[trace.App]*trace.Trace{
			trace.Video:     appgen.Generate(trace.Video, cfg.TestDuration, 0x12345),
			trace.Uploading: appgen.Generate(trace.Uploading, cfg.TestDuration, 0x54321),
		},
	}
}

// TestCapturedGridPreloadAndResume: a grid over captured traces runs
// on a worker that starts with an empty store — the coordinator must
// push exactly the named traces, once — and a worker rejoining a new
// coordinator with its state announces its holdings, so nothing is
// re-shipped and the whole second grid is served from the result
// cache. Both passes must be byte-identical to the serial evaluation
// of the same captured dataset.
func TestCapturedGridPreloadAndResume(t *testing.T) {
	cfg := distCfg()
	set := capturedSet(cfg)
	ds, err := experiments.NewEngine(1).BuildDatasetFrom(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.NewEngine(1).EvalSchemes(ds, experiments.StandardSchemes())
	if reflect.DeepEqual(want, serialGrid(t, sharedDataset(t))) {
		t.Fatal("captured grid equals the synthetic grid — the captured traces are not being used")
	}
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)
	wantTraces := len(set.Ref().Digests())

	state := dist.NewWorkerState(2, 0)
	coord1, err := dist.NewCoordinator("", dist.CoordinatorOptions{LocalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, coord1.Addr(), dist.WorkerOptions{Slots: 2, EngineWorkers: 2, State: state})
	if err := coord1.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	got := experiments.NewEngine(4).WithBackend(coord1).EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "captured grid, cold store", want, got)
	stats := coord1.Stats()
	if stats.RemoteCells != wantCells {
		t.Errorf("fleet evaluated %d captured cells, want all %d (local %d)", stats.RemoteCells, wantCells, stats.LocalCells)
	}
	if stats.TracesSent != wantTraces {
		t.Errorf("coordinator pushed %d traces, want each of the %d digests exactly once", stats.TracesSent, wantTraces)
	}
	coord1.Close()

	// Same worker state, fresh coordinator: the trace-have
	// announcement makes the preload resumable, and the result cache
	// answers every repeated cell.
	coord2, err := dist.NewCoordinator("", dist.CoordinatorOptions{LocalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	startWorker(t, coord2.Addr(), dist.WorkerOptions{Slots: 2, EngineWorkers: 2, State: state})
	if err := coord2.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	got = experiments.NewEngine(4).WithBackend(coord2).EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "captured grid, resumed store", want, got)
	stats = coord2.Stats()
	if stats.TracesSent != 0 {
		t.Errorf("rejoining worker was re-sent %d traces it announced holding", stats.TracesSent)
	}
	if stats.RemoteCacheHits != wantCells {
		t.Errorf("second grid hit the result cache %d times, want all %d cells", stats.RemoteCacheHits, wantCells)
	}
	cs := state.CacheStats()
	if cs.Hits != wantCells || cs.Misses != wantCells {
		t.Errorf("worker cache stats %+v, want %d hits over %d evaluations", cs, wantCells, wantCells)
	}
}

// TestCapturedGridTLSAuthWorkerProcesses is the multi-host acceptance
// pin: a grid containing captured-trace cells, distributed over two
// real worker processes with TLS on the coordinator port and HMAC
// auth in the handshake, produces exactly the bytes of the serial
// in-process evaluation — traces preloaded over the wire, every cell
// carried by the fleet, nobody rejected.
func TestCapturedGridTLSAuthWorkerProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	cfg := distCfg()
	set := capturedSet(cfg)
	ds, err := experiments.NewEngine(1).BuildDatasetFrom(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.NewEngine(1).EvalSchemes(ds, experiments.StandardSchemes())

	serverTLS, _, err := dist.SelfSignedTLS()
	if err != nil {
		t.Fatal(err)
	}
	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{
		LocalWorkers: 2,
		Net:          dist.NetOptions{TLS: serverTLS, AuthKey: "fleet-secret"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	for i := 0; i < 2; i++ {
		spawnWorkerProcess(t, coord.Addr(), 0,
			"DIST_TEST_KEY=fleet-secret", "DIST_TEST_TLS=insecure")
	}
	if err := coord.WaitWorkers(2, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	got := experiments.NewEngine(4).WithBackend(coord).EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "captured TLS+auth worker processes", want, got)

	stats := coord.Stats()
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)
	if stats.RemoteCells != wantCells {
		t.Errorf("fleet evaluated %d cells, want all %d (local %d, reassigned %d)",
			stats.RemoteCells, wantCells, stats.LocalCells, stats.Reassigned)
	}
	if stats.TracesSent < len(set.Ref().Digests()) {
		t.Errorf("only %d traces pushed; the participating workers cannot all hold the set", stats.TracesSent)
	}
	if stats.HandshakesRejected != 0 {
		t.Errorf("%d handshakes rejected in a correctly keyed fleet", stats.HandshakesRejected)
	}
}
