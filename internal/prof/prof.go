// Package prof gives the long-running commands their -cpuprofile,
// -memprofile and -trace flags, so any stage of a real run can be
// profiled from the command line and read with `go tool pprof <binary>
// <file>`, or traced and read with `go tool trace <file>`.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags names the profile files; an empty name skips that profile.
type Flags struct {
	CPU   string
	Mem   string
	Trace string
}

// Register adds -cpuprofile, -memprofile and -trace to fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.Mem, "memprofile", "", "write an allocation profile to this file at exit")
	fs.StringVar(&f.Trace, "trace", "", "write a runtime execution trace to this file")
}

// Start begins CPU profiling when -cpuprofile is set and execution
// tracing when -trace is set. The returned stop ends both and writes
// the -memprofile file; a command defers it, so the profiles are
// written when it returns from main (an os.Exit writes none). stop
// reports its own errors on stderr: a failed profile must not change a
// command's output or exit status.
func (f *Flags) Start() (stop func(), err error) {
	var cpu, tr *os.File
	if f.CPU != "" {
		if cpu, err = os.Create(f.CPU); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	if f.Trace != "" {
		if tr, err = os.Create(f.Trace); err == nil {
			if err = trace.Start(tr); err != nil {
				tr.Close()
			}
		}
		if err != nil {
			if cpu != nil {
				pprof.StopCPUProfile()
				cpu.Close()
			}
			return nil, err
		}
	}
	return func() {
		if tr != nil {
			trace.Stop()
			report(tr.Close())
		}
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
