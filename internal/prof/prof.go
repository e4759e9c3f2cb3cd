// Package prof gives the long-running commands their -cpuprofile and
// -memprofile flags, so any stage of a real run can be profiled from
// the command line and read with `go tool pprof <binary> <file>`.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags names the profile files; an empty name skips that profile.
type Flags struct {
	CPU string
	Mem string
}

// Register adds -cpuprofile and -memprofile to fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.Mem, "memprofile", "", "write an allocation profile to this file at exit")
}

// Start begins CPU profiling when -cpuprofile is set. The returned
// stop ends it and writes the -memprofile file; a command defers it,
// so the profiles are written when it returns from main (an os.Exit
// writes none). stop reports its own errors on stderr: a failed
// profile must not change a command's output or exit status.
func (f *Flags) Start() (stop func(), err error) {
	var cpu *os.File
	if f.CPU != "" {
		if cpu, err = os.Create(f.CPU); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			report(cpu.Close())
		}
		if f.Mem != "" {
			report(writeAllocs(f.Mem))
		}
	}, nil
}

// writeAllocs writes the allocation profile, after a GC so it counts
// every allocation made so far (as `go test -memprofile` does).
func writeAllocs(name string) error {
	out, err := os.Create(name)
	if err != nil {
		return err
	}
	runtime.GC()
	err = pprof.Lookup("allocs").WriteTo(out, 0)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

func report(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "prof:", err)
	}
}
