// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload for a fixed wall-clock budget, checks every
// output against a reference, and prints the metrics as one JSON line
// (the last line of standard output).
//
//	go run . --workload grid-quick --seed 1 --seconds 50 --trace 0
//
// Workloads (see README.md for what each exercises):
//
//	grid-quick     the full quick evaluation on an in-process 2-worker engine
//	daemon-churn   ~1000 short-lived flows batched into a 1-shard stream engine
//
// With --trace 0 the run reports the end-to-end metrics, measured with
// no tracing. With --trace 1 it makes the separate traced run instead:
// spans around the public calls into every layer, written to
// --spans, and the per-layer metrics derived from them. The traced run
// also covers the grid on a loopback fleet and an inline daemon replay
// driven through Source.Assign.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's verdict on one run.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`

	// extra holds figures printed for the reader but not part of the
	// machine-read metric set (the workload's own per-packet and
	// checkpoint figures, fail_frac).
	extra []namedMetric
}

type namedMetric struct {
	name string
	Metric
}

func newResult() *Result { return &Result{Correct: true, Metrics: map[string]Metric{}} }

func (r *Result) set(name string, v float64, unit string) {
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

func (r *Result) note(name string, v float64, unit string) {
	r.extra = append(r.extra, namedMetric{name, Metric{v, unit}})
}

// gate records one checked operation of n attempted units, failing
// the run's correctness when the check did not hold.
func (r *Result) gate(ok bool, n int64) {
	r.Attempted += n
	if !ok {
		r.Failed += n
		r.Correct = false
	}
}

// Options sizes a run.
type Options struct {
	Workload string
	Seed     uint64
	Budget   time.Duration // timed-phase budget; at least one repetition runs
	Spans    string        // traced run: where the spans are written
	// Small shrinks the daemon inputs for the self-test.
	Small bool
}

var workloads = map[string]func(Options) (*Result, error){
	"grid-quick":   runGridQuick,
	"daemon-churn": runDaemonChurn,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: grid-quick or daemon-churn")
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 50, "timed-phase budget in seconds")
		traced   = flag.Int("trace", 0, "1 = the traced per-layer run instead of the end-to-end run")
		spans    = flag.String("spans", "", "traced run: span output file (default .bench_build/spans/<workload>-<seed>.jsonl)")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	)
	flag.Parse()

	// Load bounds: one process, one goroutine per CPU.
	runtime.GOMAXPROCS(runtime.NumCPU())
	fixGC()

	run, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown --workload %q", *workload))
	}
	opt := Options{Workload: *workload, Seed: *seed, Budget: time.Duration(*seconds * float64(time.Second))}
	if *traced == 1 {
		opt.Spans = *spans
		if opt.Spans == "" {
			opt.Spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *workload, *seed))
		}
		run = runTraced
	} else if *traced != 0 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}

	printEnv(os.Stdout, opt)
	var prof *os.File
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		prof = f
	}
	res, err := run(opt)
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fatal(err)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fatal(err)
	}
}

// The collector runs at a fixed setting, whatever GOGC and GOMEMLIMIT
// say, so every run of every checkout collects alike. GOGC=400 runs a
// quarter as many cycles as the default on grid-quick (about 10
// instead of 36 per report), which in a paired test on 2 vCPUs halved
// the range of its repetitions; the soft limit bounds the largest
// heap (the traced run's fleet peaks near 1 GB resident).
const (
	gcPercent   = 400
	memoryLimit = 1536 << 20
)

func fixGC() {
	debug.SetGCPercent(gcPercent)
	debug.SetMemoryLimit(memoryLimit)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printResult prints every metric as a readable line, then the JSON
// verdict as the last line.
func printResult(w io.Writer, res *Result) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "metric %-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, m := range res.extra {
		fmt.Fprintf(w, "info   %-40s %14.6g %s\n", m.name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printEnv records where the numbers come from: CPU count and model,
// Go version, and the commit or, outside a git checkout, a digest of
// the source tree.
func printEnv(w io.Writer, opt Options) {
	env := map[string]any{
		"workload":   opt.Workload,
		"seed":       opt.Seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"gogc":       gcPercent,
		"commit":     commit(),
		"source":     sourceDigest(),
	}
	line, _ := json.Marshal(env)
	fmt.Fprintf(w, "env %s\n", line)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// repoRoot is the module root of the program under test: the parent
// of the benchmark's directory.
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "internal", "experiments")); err == nil {
			return dir
		}
	}
	return "."
}

func commit() string {
	root := repoRoot()
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod file of the program,
// so a result names the code it measured even where there is no git.
func sourceDigest() string {
	root := repoRoot()
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			data, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
