package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// runMainEnv makes the test binary act as the experiments command, so
// the tests below drive the real flag parsing and exit path.
const runMainEnv = "EXPERIMENTS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runExperiments(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("experiments %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

// TestCPUProfileLeavesReportUnchanged: -cpuprofile writes a non-empty
// profile and the report is byte-identical to the same run without it.
func TestCPUProfileLeavesReportUnchanged(t *testing.T) {
	args := []string{"-quick", "-run", "table1"}
	plain := runExperiments(t, args...)
	if !bytes.Contains(plain, []byte("metric orig_size/vo.")) {
		t.Fatalf("unexpected report:\n%s", plain)
	}
	cpu := filepath.Join(t.TempDir(), "cpu.pprof")
	profiled := runExperiments(t, append(args, "-cpuprofile", cpu)...)
	if !bytes.Equal(plain, profiled) {
		t.Fatalf("report differs under -cpuprofile:\n--- plain\n%s\n--- profiled\n%s", plain, profiled)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Fatalf("cpu profile missing or empty: %v", err)
	}
}

// TestExecutionTraceLeavesReportUnchanged: -trace writes a non-empty
// execution trace and the report is byte-identical to the same run
// without it.
func TestExecutionTraceLeavesReportUnchanged(t *testing.T) {
	args := []string{"-quick", "-run", "table1"}
	plain := runExperiments(t, args...)
	tr := filepath.Join(t.TempDir(), "run.trace")
	traced := runExperiments(t, append(args, "-trace", tr)...)
	if !bytes.Equal(plain, traced) {
		t.Fatalf("report differs under -trace:\n--- plain\n%s\n--- traced\n%s", plain, traced)
	}
	if fi, err := os.Stat(tr); err != nil || fi.Size() == 0 {
		t.Fatalf("execution trace missing or empty: %v", err)
	}
}
