package prof

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var sink []byte

// TestStartWritesBothProfiles: both profiles come out as gzip-framed
// pprof protobufs, the format `go tool pprof` reads, and the execution
// trace carries the runtime trace header `go tool trace` reads.
func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	tr := filepath.Join(dir, "run.trace")
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem, "-trace", tr}); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		sink = make([]byte, 1024)
	}
	stop()
	for _, name := range []string{cpu, mem} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Fatalf("%s: %d bytes, not a gzipped profile", filepath.Base(name), len(b))
		}
	}
	b, err := os.ReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte("go 1.")) || !bytes.Contains(b[:16], []byte(" trace")) {
		t.Fatalf("%s: %d bytes, no execution trace header", filepath.Base(tr), len(b))
	}
}

// TestStartErrors: the zero Flags start and stop cleanly, and an
// uncreatable -cpuprofile file fails Start before any work runs.
func TestStartErrors(t *testing.T) {
	stop, err := (&Flags{}).Start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	bad := filepath.Join(t.TempDir(), "missing", "cpu.pprof")
	if _, err := (&Flags{CPU: bad}).Start(); err == nil {
		t.Fatal("Start with an uncreatable -cpuprofile file returned no error")
	}
	// A -trace failure after -cpuprofile started must stop the CPU
	// profile again, or the next Start could not begin one.
	cpu := filepath.Join(t.TempDir(), "cpu.pprof")
	if _, err := (&Flags{CPU: cpu, Trace: bad}).Start(); err == nil {
		t.Fatal("Start with an uncreatable -trace file returned no error")
	}
	stop, err = (&Flags{CPU: cpu}).Start()
	if err != nil {
		t.Fatalf("CPU profile left running by the failed Start: %v", err)
	}
	stop()
}
