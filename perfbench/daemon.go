package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/attack"
	"trafficreshape/internal/mac"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/stream"
	"trafficreshape/internal/trace"
)

const daemonW = 5 * time.Second

// Daemon input sizes. The self-test shrinks them.
type daemonSize struct {
	replay     time.Duration // traced replay: length of each application's flow
	churnFlows int           // daemon-churn: distinct source MACs
}

func sizeOf(opt Options) daemonSize {
	if opt.Small {
		return daemonSize{replay: 60 * time.Second, churnFlows: 40}
	}
	return daemonSize{replay: 1200 * time.Second, churnFlows: 1000}
}

// replayCapture is the `reshaped -synth` capture: one flow per
// application, each under a fixed locally administered address, merged
// into one arrival-ordered stream.
func replayCapture(dur time.Duration, seed uint64) *trace.Trace {
	flows := make([]*trace.Trace, 0, trace.NumApps)
	for i, app := range trace.Apps {
		tr := appgen.Generate(app, dur, seed+uint64(i))
		addr := mac.Address{0x02, 0x00, 0x5e, 0x00, 0x00, byte(i + 1)}
		for j := range tr.Packets {
			tr.Packets[j].MAC = addr
		}
		flows = append(flows, tr)
	}
	return trace.Merge(flows...)
}

// Churn flow shape: each source MAC sends one burst of one
// application's traffic, shorter than the window, and a new MAC starts
// every churnStagger.
const (
	churnBurst   = 4 * time.Second
	churnStagger = 10 * time.Millisecond
)

// churnCapture builds the daemon-churn capture: flows short-lived MACs,
// each a churnBurst of application k mod 7 starting k·churnStagger in.
func churnCapture(flows int, seed uint64) *trace.Trace {
	parts := make([]*trace.Trace, flows)
	for k := range parts {
		app := trace.Apps[k%trace.NumApps]
		tr := appgen.Generate(app, churnBurst, seed*100003+uint64(k))
		addr := mac.Address{0x06, 0x00, byte(k >> 24), byte(k >> 16), byte(k >> 8), byte(k)}
		start := time.Duration(k) * churnStagger
		for j := range tr.Packets {
			tr.Packets[j].MAC = addr
			tr.Packets[j].Time += start
		}
		parts[k] = tr
	}
	return trace.Merge(parts...)
}

// auditTraining is the self-audit's training traffic: 60 s of each
// application, as `reshaped` generates it at start-up with its default
// -train-seed. It is the daemon's configuration, not workload input, so
// it does not follow the workload seed.
func auditTraining() map[trace.App]*trace.Trace {
	out := make(map[trace.App]*trace.Trace, trace.NumApps)
	for i, app := range trace.Apps {
		out[app] = appgen.Generate(app, 60*time.Second, 9000+uint64(i))
	}
	return out
}

// trainAudit trains the daemon's self-audit kNN, as `reshaped` does.
func trainAudit(training map[trace.App]*trace.Trace) (*attack.Classifier, error) {
	return attack.Train(training, attack.TrainOptions{W: daemonW, Trainer: &ml.KNNTrainer{K: 5}, Seed: 7})
}

func daemonConfig(seed uint64, cls *attack.Classifier, shards int) stream.Config {
	return stream.Config{W: daemonW, Seed: seed, Shards: shards, Classifier: cls, Policy: stream.PolicyBackpressure}
}

// daemonInputs is everything a daemon workload feeds the program,
// generated before set-up.
type daemonInputs struct {
	capture  *trace.Trace
	addrs    []mac.Address // the capture's flows, in first-seen order
	training map[trace.App]*trace.Trace
	seed     uint64
	// ref is the report of the same capture in the other mode (inline
	// against sharded): the output gate.
	ref []byte
}

// reference replays the capture through a fresh engine with the given
// shard count and renders its report.
func (in *daemonInputs) reference(shards int) error {
	cls, err := trainAudit(in.training)
	if err != nil {
		return err
	}
	e := stream.New(daemonConfig(in.seed, cls, shards))
	e.IngestTrace(in.capture)
	var buf bytes.Buffer
	if _, err := e.Drain().WriteTo(&buf); err != nil {
		return err
	}
	in.ref = buf.Bytes()
	return nil
}

// daemonGate checks a report: the conservation equation holds exactly
// for every packet of the capture, and the rendered bytes equal the
// other mode's. It returns the packets the engine failed to complete.
func daemonGate(rep *stream.Report, out, ref []byte, offered int) (ok bool, failed int64) {
	failed = rep.Shed + rep.Stalled + rep.Lost
	ok = rep.Offered == int64(offered) &&
		rep.Offered == rep.Packets+failed &&
		bytes.Equal(out, ref)
	return ok, failed
}

// daemonRun is one replay of the capture through a fresh engine.
type daemonRun struct {
	engine *stream.Engine
	report *stream.Report
	out    []byte
	ingest time.Duration // first packet offered to the last accepted
	ckpt   time.Duration // Engine.Checkpoint at the end of ingest
	ckptB  int64
	drain  time.Duration // Drain plus Report.WriteTo
}

// replay runs the capture through a fresh engine with the given shard
// count. inline engines are driven through Source.Assign, one packet
// at a time; lat, when non-nil, receives each Assign's latency in ns.
// Sharded engines are fed with Ingest. The checkpoint is taken after
// the last packet and is not part of ingest or drain.
func (in *daemonInputs) replay(shards int, lat []uint32, rec *Recorder, parent int) (*daemonRun, error) {
	r := &daemonRun{}
	sp := rec.Start("stream.audit_train", parent)
	cls, err := trainAudit(in.training)
	rec.End(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.Start("stream.new", parent)
	e := stream.New(daemonConfig(in.seed, cls, shards))
	var srcs map[mac.Address]*stream.Source
	if shards == 0 {
		srcs = make(map[mac.Address]*stream.Source, len(in.addrs))
		for _, a := range in.addrs {
			srcs[a] = e.Source(a)
		}
	}
	rec.End(sp)
	r.engine = e

	pkts := in.capture.Packets
	sp = rec.Start("stream.ingest", parent)
	t0 := time.Now()
	switch {
	case shards > 0:
		for _, p := range pkts {
			e.Ingest(p)
		}
	case lat != nil:
		for i, p := range pkts {
			s := srcs[p.MAC]
			t := time.Now()
			s.Assign(p)
			lat[i] = uint32(min(time.Since(t), 1<<32-1))
		}
	default:
		for _, p := range pkts {
			srcs[p.MAC].Assign(p)
		}
	}
	r.ingest = time.Since(t0)
	rec.End(sp, "offered", len(pkts))

	var cw countWriter
	sp = rec.Start("stream.checkpoint", parent)
	t0 = time.Now()
	err = e.Checkpoint(&cw)
	r.ckpt = time.Since(t0)
	rec.End(sp, "bytes", cw.n)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	r.ckptB = cw.n

	sp = rec.Start("stream.drain", parent)
	t0 = time.Now()
	r.report = e.Drain()
	var buf bytes.Buffer
	_, err = r.report.WriteTo(&buf)
	r.drain = time.Since(t0)
	rep := r.report
	rec.End(sp, "packets", rep.Packets, "offered", rep.Offered, "flows", len(rep.Flows),
		"windows", rep.Windows, "classified", rep.Classified, "leaked", rep.Leaked,
		"escalations", rep.Escalations, "shed", rep.Shed, "stalled", rep.Stalled, "lost", rep.Lost,
		"granted", granted(rep))
	if err != nil {
		return nil, err
	}
	r.out = buf.Bytes()
	return r, nil
}

// granted sums the vMAC interfaces the AP granted across flows.
func granted(rep *stream.Report) int {
	n := 0
	for _, f := range rep.Flows {
		n += f.Granted
	}
	return n
}

func leakFrac(rep *stream.Report) float64 {
	if rep.Classified == 0 {
		return 0
	}
	return float64(rep.Leaked) / float64(rep.Classified)
}

// newDaemonInputs generates a daemon workload's inputs and its
// reference report (in refShards mode).
func newDaemonInputs(capture *trace.Trace, seed uint64, refShards int) (*daemonInputs, error) {
	in := &daemonInputs{capture: capture, training: auditTraining(), seed: seed}
	seen := make(map[mac.Address]bool)
	for _, p := range capture.Packets {
		if !seen[p.MAC] {
			seen[p.MAC] = true
			in.addrs = append(in.addrs, p.MAC)
		}
	}
	if err := in.reference(refShards); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return in, nil
}

// runDaemonChurn: many short-lived flows ingested in batches into a
// 1-shard engine under backpressure, a fresh engine per repetition;
// the gate is the inline engine's report.
func runDaemonChurn(opt Options) (*Result, error) {
	in, err := newDaemonInputs(churnCapture(sizeOf(opt).churnFlows, opt.Seed), opt.Seed, 0)
	if err != nil {
		return nil, err
	}
	const shards = 1
	// Set-up is the audit kNN's training plus stream.New; the drain
	// that stops the engine's goroutines is not timed.
	daemonSetup := func() (time.Duration, error) {
		t0 := time.Now()
		cls, err := trainAudit(in.training)
		if err != nil {
			return 0, err
		}
		e := stream.New(daemonConfig(in.seed, cls, shards))
		d := time.Since(t0)
		e.Drain()
		return d, nil
	}
	res := newResult()
	heap0 := liveHeap()
	var setups, reports, ckpts, pps []float64
	var heapMB, leak float64
	var flows int
	var runErr error
	runPhase(opt.Budget, func(i int, p *phase) {
		if runErr != nil {
			return
		}
		if setups, runErr = sampleSetup(setups, 2, daemonSetup); runErr != nil {
			return
		}
		runtime.GC()
		r, err := in.replay(shards, nil, nil, 0)
		if err != nil {
			runErr = err
			return
		}
		ok, failed := daemonGate(r.report, r.out, in.ref, len(in.capture.Packets))
		res.Attempted += r.report.Offered
		res.Failed += failed
		if !ok {
			res.Correct = false
			res.Failed += r.report.Offered - failed
		}
		if p.counts(i) {
			reports = append(reports, seconds(r.ingest+r.drain))
			pps = append(pps, float64(r.report.Packets)/seconds(r.ingest+r.drain))
			ckpts = append(ckpts, float64(r.ckpt)/1e6)
		}
		leak = leakFrac(r.report)
		flows = len(r.report.Flows)
		if p.Done() {
			heapMB = mb(liveHeap(), heap0)
			runtime.KeepAlive(r.engine)
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	res.set("setup_s", median(setups), "s")
	res.set("report_s", median(reports), "s")
	res.set("heap_mb", heapMB, "MB")
	res.set("leak_frac", leak, "ratio")
	res.note("packets", float64(len(in.capture.Packets)), "count")
	res.note("flows", float64(flows), "count")
	res.note("pkts_per_s", median(pps), "pkt/s")
	res.note("ckpt_pause_ms", median(ckpts), "ms")
	res.note("fail_frac", float64(res.Failed)/float64(res.Attempted), "ratio")
	return res, nil
}
