package stream

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/attack"
	"trafficreshape/internal/features"
	"trafficreshape/internal/mac"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/trace"
	"trafficreshape/internal/vmac"
)

// flowMAC mints the locally-administered per-flow address the daemon
// assigns: deterministic, never colliding with pool draws (which are
// random 48-bit values).
func flowMAC(i int) mac.Address {
	return mac.Address{0x02, 0x00, 0x5e, 0x00, 0x00, byte(i + 1)}
}

// capture builds a multi-flow input: one flow per application, each
// under its own address, merged into arrival order.
func capture(t testing.TB, dur time.Duration, seed uint64) *trace.Trace {
	t.Helper()
	flows := make([]*trace.Trace, 0, trace.NumApps)
	for i, app := range trace.Apps {
		tr := appgen.Generate(app, dur, seed+uint64(i))
		for j := range tr.Packets {
			tr.Packets[j].MAC = flowMAC(i)
		}
		flows = append(flows, tr)
	}
	return trace.Merge(flows...)
}

// auditClassifier trains the deterministic self-audit kNN the daemon
// uses: explicit trainer, no holdout.
func auditClassifier(t testing.TB, w time.Duration) *attack.Classifier {
	t.Helper()
	training := make(map[trace.App]*trace.Trace, trace.NumApps)
	for i, app := range trace.Apps {
		training[app] = appgen.Generate(app, 60*time.Second, 9000+uint64(i))
	}
	c, err := attack.Train(training, attack.TrainOptions{W: w, Trainer: &ml.KNNTrainer{K: 5}, Seed: 7})
	if err != nil {
		t.Fatalf("train audit classifier: %v", err)
	}
	return c
}

func renderReport(t testing.TB, r *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatalf("render report: %v", err)
	}
	return buf.Bytes()
}

// TestReplayEquivalenceAcrossShards is the engine's core contract:
// the same input yields a byte-identical report inline and sharded
// over 1, 4 and 8 goroutines.
func TestReplayEquivalenceAcrossShards(t *testing.T) {
	cls := auditClassifier(t, 5*time.Second)
	in := capture(t, 30*time.Second, 42)
	run := func(shards int) []byte {
		e := New(Config{Seed: 11, Shards: shards, Classifier: cls, BatchSize: 64})
		e.IngestTrace(in)
		return renderReport(t, e.Drain())
	}
	ref := run(0)
	for _, shards := range []int{1, 4, 8} {
		if got := run(shards); !bytes.Equal(got, ref) {
			t.Errorf("shards=%d report diverges from inline:\n--- inline ---\n%s--- shards=%d ---\n%s",
				shards, ref, shards, got)
		}
	}
}

// TestReplayRepeatable: two runs of the identical configuration are
// byte-identical (no hidden global state, map-order, or time
// dependence).
func TestReplayRepeatable(t *testing.T) {
	cls := auditClassifier(t, 5*time.Second)
	in := capture(t, 20*time.Second, 43)
	run := func() []byte {
		e := New(Config{Seed: 3, Shards: 4, Classifier: cls})
		e.IngestTrace(in)
		return renderReport(t, e.Drain())
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Error("same configuration produced different reports across runs")
	}
}

// TestStreamMatchesBatchWindowing pins the incremental window cutter
// to the batch one: without escalation in play (no classifier), each
// flow's window count must equal trace.AppendWindows(minPackets=1)
// and its classified count the features.AppendWindowsOf qualifying
// count.
func TestStreamMatchesBatchWindowing(t *testing.T) {
	const w = 5 * time.Second
	cls := auditClassifier(t, w)
	in := capture(t, 30*time.Second, 44)

	e := New(Config{W: w, Seed: 11, Classifier: cls, RingCap: 1 << 14,
		// One interface and an enormous escalation threshold: the
		// audit still classifies every qualifying window, but cannot
		// change per-flow behavior mid-run.
		Interfaces: 1, EscalateAfter: 1 << 30})
	e.IngestTrace(in)
	rep := e.Drain()

	perFlow := in.ByMAC()
	if len(rep.Flows) != len(perFlow) {
		t.Fatalf("report has %d flows, capture has %d", len(rep.Flows), len(perFlow))
	}
	for _, fr := range rep.Flows {
		addr, err := mac.ParseAddress(fr.MAC)
		if err != nil {
			t.Fatalf("report MAC %q: %v", fr.MAC, err)
		}
		tr := perFlow[addr]
		if tr == nil {
			t.Fatalf("report flow %s not in capture", fr.MAC)
		}
		batchWindows := tr.AppendWindows(nil, w, 1, false)
		if int64(len(batchWindows)) != fr.Windows {
			t.Errorf("flow %s: stream windows=%d, batch windows=%d", fr.MAC, fr.Windows, len(batchWindows))
		}
		qualifying := features.AppendWindowsOf(nil, tr, w, false)
		if int64(len(qualifying)) != fr.Classified {
			t.Errorf("flow %s: stream classified=%d, batch qualifying=%d", fr.MAC, fr.Classified, len(qualifying))
		}
	}
}

// TestStreamPredictionsMatchBatch: with one interface the stream's
// window contents are the flow's raw packets, so its per-window
// predictions must equal classifying the batch-cut windows.
func TestStreamPredictionsMatchBatch(t *testing.T) {
	const w = 5 * time.Second
	cls := auditClassifier(t, w)
	in := capture(t, 30*time.Second, 45)

	e := New(Config{W: w, Seed: 11, Classifier: cls, RingCap: 1 << 14, Interfaces: 1, EscalateAfter: 1 << 30})
	e.IngestTrace(in)
	rep := e.Drain()

	perFlow := in.ByMAC()
	for _, fr := range rep.Flows {
		addr, _ := mac.ParseAddress(fr.MAC)
		var batchHist [trace.NumApps]int64
		for _, win := range features.AppendWindowsOf(nil, perFlow[addr], w, false) {
			batchHist[cls.Classify(win)]++
		}
		if fr.Pred != batchHist {
			t.Errorf("flow %s: stream predictions %v != batch %v", fr.MAC, fr.Pred, batchHist)
		}
	}
}

// TestEscalationOnPersistentLeak: a pure bulk download reshaped over
// few interfaces keeps its sub-flows classifiable (Table II's row),
// so the self-audit must detect the leak and escalate — raising the
// interface count and re-granting vMACs under the engine's AP.
func TestEscalationOnPersistentLeak(t *testing.T) {
	const w = 5 * time.Second
	cls := auditClassifier(t, w)
	tr := appgen.Generate(trace.Downloading, 60*time.Second, 46)
	for j := range tr.Packets {
		tr.Packets[j].MAC = flowMAC(0)
	}
	e := New(Config{W: w, Seed: 5, Classifier: cls, Interfaces: 2, EscalateAfter: 2})
	e.IngestTrace(tr)
	rep := e.Drain()
	if len(rep.Flows) != 1 {
		t.Fatalf("expected 1 flow, got %d", len(rep.Flows))
	}
	f := rep.Flows[0]
	if f.Leaked == 0 {
		t.Fatal("bulk download never flagged as leaked — the self-audit premise failed")
	}
	if f.Escalations == 0 {
		t.Fatal("persistent leak did not escalate")
	}
	if f.Interfaces <= 2 {
		t.Errorf("interfaces = %d after escalation, want > 2", f.Interfaces)
	}
	if f.Granted != f.Interfaces {
		t.Errorf("granted %d vMACs for %d interfaces", f.Granted, f.Interfaces)
	}
	if rep.Outstanding != f.Granted {
		t.Errorf("AP outstanding=%d, flow granted=%d", rep.Outstanding, f.Granted)
	}
	if f.VmacErrors != 0 {
		t.Errorf("vmac errors: %d", f.VmacErrors)
	}
}

// TestStingyAPCapsInterfaces: when the AP policy grants fewer
// interfaces than requested, the engine schedules only onto granted
// addresses.
func TestStingyAPCapsInterfaces(t *testing.T) {
	ap := vmac.NewAP(vmac.APConfig{MaxPerClient: 2, Seed: 1})
	tr := appgen.Generate(trace.Browsing, 10*time.Second, 47)
	for j := range tr.Packets {
		tr.Packets[j].MAC = flowMAC(0)
	}
	e := New(Config{Seed: 5, Interfaces: 5, AP: ap})
	e.IngestTrace(tr)
	rep := e.Drain()
	if f := rep.Flows[0]; f.Interfaces != 2 || f.Granted != 2 {
		t.Errorf("ifaces=%d granted=%d under MaxPerClient=2, want 2/2", f.Interfaces, f.Granted)
	}
}

// TestIdleGapJumps: a flow that goes silent for a very long time must
// not make the engine walk every empty window boundary one by one.
// With a naive loop this test would spin for ~1.8e9 iterations.
func TestIdleGapJumps(t *testing.T) {
	e := New(Config{W: time.Millisecond, Seed: 1})
	addr := flowMAC(0)
	e.Ingest(trace.Packet{Time: 0, Size: 100, MAC: addr})
	e.Ingest(trace.Packet{Time: 20 * 24 * time.Hour, Size: 100, MAC: addr})
	e.Ingest(trace.Packet{Time: 20*24*time.Hour + time.Microsecond, Size: 100, MAC: addr})
	rep := e.Drain()
	if f := rep.Flows[0]; f.Windows != 2 || f.Packets != 3 {
		t.Errorf("windows=%d packets=%d across idle gap, want 2/3", f.Windows, f.Packets)
	}
}

// TestRingEvictionBoundsMemory: a window with more packets than
// RingCap keeps only the newest RingCap, and says so in the report.
func TestRingEvictionBoundsMemory(t *testing.T) {
	e := New(Config{W: time.Hour, RingCap: 8, Seed: 1})
	addr := flowMAC(0)
	for i := 0; i < 100; i++ {
		e.Ingest(trace.Packet{Time: time.Duration(i) * time.Millisecond, Size: 100, MAC: addr})
	}
	rep := e.Drain()
	if f := rep.Flows[0]; f.Evicted != 92 || f.Packets != 100 {
		t.Errorf("evicted=%d packets=%d with RingCap=8, want 92/100", f.Evicted, f.Packets)
	}
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMACSprayBoundsFlowMemory pins per-flow memory to the packets a
// flow holds, not to RingCap. Source MACs come off the air, so a
// spoofer can mint a new flow with every packet: 5000 one-packet MACs
// must hold at most 16 KB of live heap per flow (a ring allocated at
// the default RingCap alone is 196 KB). Every offered packet is
// accounted for, and the report is byte-identical at 1, 4 and 8
// shards.
func TestMACSprayBoundsFlowMemory(t *testing.T) {
	const flows = 5000
	const maxPerFlow = 16 << 10
	spray := make([]trace.Packet, flows)
	for i := range spray {
		spray[i] = trace.Packet{
			Time: time.Duration(i) * time.Microsecond,
			Size: 60 + i%1400,
			Dir:  trace.Direction(i % 2),
			MAC:  mac.Address{0x02, 0x5a, 0x00, byte(i >> 16), byte(i >> 8), byte(i)},
		}
	}
	var want []byte
	for _, shards := range []int{1, 4, 8} {
		before := liveHeap()
		e := New(Config{Seed: 5, Shards: shards})
		for _, p := range spray {
			e.Ingest(p)
		}
		rep := e.Drain()
		after := liveHeap()
		per := (int64(after) - int64(before)) / flows
		t.Logf("shards=%d: %d B of live heap per flow", shards, per)
		if per > maxPerFlow {
			t.Errorf("shards=%d: %d flows hold %d B of live heap each, want <= %d",
				shards, flows, per, maxPerFlow)
		}
		runtime.KeepAlive(e)
		if len(rep.Flows) != flows || rep.Offered != flows || rep.Packets != flows {
			t.Fatalf("shards=%d: flows=%d offered=%d packets=%d, want %d each",
				shards, len(rep.Flows), rep.Offered, rep.Packets, flows)
		}
		assertConservation(t, rep)
		got := renderReport(t, rep)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("shards=%d report differs from shards=1", shards)
		}
	}
}

// TestSourceMatchesIngest: the synchronous per-packet path must make
// exactly the decisions the batched path makes — same flow digests —
// and report real interface indices.
func TestSourceMatchesIngest(t *testing.T) {
	in := capture(t, 10*time.Second, 48)
	run := func(sync bool, shards int) *Report {
		e := New(Config{Seed: 11, Shards: shards})
		if sync {
			sources := make(map[mac.Address]*Source)
			for _, p := range in.Packets {
				src := sources[p.MAC]
				if src == nil {
					src = e.Source(p.MAC)
					sources[p.MAC] = src
				}
				if iface := src.Assign(p); iface < 0 || iface >= vmac.MaxInterfaces {
					t.Fatalf("sync assign returned %d", iface)
				}
			}
		} else {
			e.IngestTrace(in)
		}
		return e.Drain()
	}
	ref := run(false, 0)
	for _, shards := range []int{0, 2} {
		got := run(true, shards)
		if got.Digest != ref.Digest {
			t.Errorf("sync path (shards=%d) digest %016x != batched %016x", shards, got.Digest, ref.Digest)
		}
	}
}

// TestIngestSteadyStateAllocFree gates the tentpole's hot-path
// promise: after flows exist, ingesting packets — including window
// closes and self-audit classification — performs zero heap
// allocations per packet.
func TestIngestSteadyStateAllocFree(t *testing.T) {
	const w = 250 * time.Millisecond // frequent window closes
	cls := auditClassifier(t, w)
	in := capture(t, 30*time.Second, 49)
	e := New(Config{W: w, Seed: 11, Classifier: cls, RingCap: 512, EscalateAfter: 1 << 30})
	// Warm: create every flow, cross several windows and epochs.
	warm := in.Packets[:len(in.Packets)/2]
	rest := in.Packets[len(in.Packets)/2:]
	for _, p := range warm {
		e.Ingest(p)
	}
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		for j := 0; j < 200; j++ {
			e.Ingest(rest[i%len(rest)])
			i++
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ingest allocates %.2f per 200 packets, want 0", allocs)
	}
}
