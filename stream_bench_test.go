package trafficreshape

// Streaming-engine micro-benchmarks (recorded in BENCH_PR6.json).
// Three shapes:
//
//   - StreamIngestInline: the full per-packet path — window
//     maintenance, adaptive scheduling, ring append, self-audit
//     classification on window close — inline on one goroutine.
//     Zero-alloc gated in CI.
//   - StreamAssignSingleFlow: the synchronous single-flow path. An
//     inline shaper cannot transmit a packet before the engine tells
//     it which virtual interface carries it, so one flow is a serial
//     request/response chain; the per-op time IS the per-packet
//     decision latency, and its inverse the single-flow packets/sec
//     ceiling.
//   - StreamIngestSharded: the asynchronous batched path across many
//     flows. Its ns/op is the producer's handoff cost only; shards
//     finish the packets afterwards, so the 12.6× single-flow vs
//     sharded ratio in BENCH_PR6.json (1 vCPU) is not throughput.
//     Counted in completed packets on 2 cores, the daemon takes about
//     140 ns/packet inline and 146–172 ns/packet at 1–4 shards
//     (reshaped -synth); perfbench's traced runs measure 6–7.7 M
//     packets/s for an inline replay and about 2.7 M packets/s for a
//     1-shard churn of short-lived flows.

import (
	"testing"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/attack"
	"trafficreshape/internal/mac"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/stream"
	"trafficreshape/internal/trace"
)

// streamBenchCapture builds the multi-flow input: one flow per
// application under its own locally-administered address.
func streamBenchCapture(dur time.Duration) *trace.Trace {
	flows := make([]*trace.Trace, 0, trace.NumApps)
	for i, app := range trace.Apps {
		tr := appgen.Generate(app, dur, 500+uint64(i))
		addr := mac.Address{0x02, 0x00, 0x5e, 0x00, 0x00, byte(i + 1)}
		for j := range tr.Packets {
			tr.Packets[j].MAC = addr
		}
		flows = append(flows, tr)
	}
	return trace.Merge(flows...)
}

// benchPeriod is the adaptive-scheduler re-derivation period used by
// every stream benchmark, deliberately identical across the
// single-flow and sharded configurations so their ratio
// compares paths, not tuning. 2000 packets is well under a second of
// traffic at daemon rates.
const benchPeriod = 2000

var streamBenchCls *attack.Classifier

func streamBenchClassifier(b testing.TB) *attack.Classifier {
	b.Helper()
	if streamBenchCls == nil {
		training := make(map[trace.App]*trace.Trace, trace.NumApps)
		for i, app := range trace.Apps {
			training[app] = appgen.Generate(app, 30*time.Second, 600+uint64(i))
		}
		cls, err := attack.Train(training, attack.TrainOptions{
			W: time.Second, Trainer: &ml.KNNTrainer{K: 5}, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		streamBenchCls = cls
	}
	return streamBenchCls
}

// cyclePackets replays a capture's packets forever with a monotone
// time offset per lap, so per-flow time never runs backwards and
// windows keep closing at the steady-state rate.
type cyclePackets struct {
	packets []trace.Packet
	span    time.Duration
	base    time.Duration
	i       int
}

func newCycle(tr *trace.Trace) *cyclePackets {
	return &cyclePackets{packets: tr.Packets, span: tr.Duration() + time.Second}
}

func (c *cyclePackets) next() trace.Packet {
	p := c.packets[c.i]
	p.Time += c.base
	c.i++
	if c.i == len(c.packets) {
		c.i = 0
		c.base += c.span
	}
	return p
}

// BenchmarkStreamIngestInline: full ingest path with the self-audit
// classifier, zero allocations per packet in steady state (CI-gated).
// Escalation is disabled so the measured window never rebuilds
// schedulers mid-run; escalations are rare control-plane events, not
// steady state.
func BenchmarkStreamIngestInline(b *testing.B) {
	in := streamBenchCapture(20 * time.Second)
	e := stream.New(stream.Config{
		W: time.Second, RingCap: 512, Seed: 11, Period: benchPeriod,
		Classifier: streamBenchClassifier(b), EscalateAfter: 1 << 30,
	})
	cyc := newCycle(in)
	for i := 0; i < len(in.Packets)+10000; i++ { // create flows, cross windows and epochs
		e.Ingest(cyc.next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.Ingest(cyc.next())
	}
}

// BenchmarkStreamAssignSingleFlow: synchronous per-packet decision
// latency for one flow on a sharded engine — enqueue, wait for the
// shard's interface assignment, return. Allocation-free per call.
func BenchmarkStreamAssignSingleFlow(b *testing.B) {
	tr := appgen.Generate(trace.Downloading, 20*time.Second, 510)
	addr := mac.Address{0x02, 0x00, 0x5e, 0x00, 0x00, 0x01}
	for j := range tr.Packets {
		tr.Packets[j].MAC = addr
	}
	e := stream.New(stream.Config{W: time.Second, RingCap: 512, Seed: 11, Shards: 1, Period: benchPeriod})
	src := e.Source(addr)
	cyc := newCycle(tr)
	for i := 0; i < 20000; i++ {
		src.Assign(cyc.next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		src.Assign(cyc.next())
	}
	b.StopTimer()
	e.Drain()
}

// BenchmarkStreamIngestSharded: asynchronous batched ingest across
// all seven flows on four shard goroutines — the daemon's sustained
// multi-flow throughput path. Per-op time is the producer-side cost
// per packet with the shards consuming concurrently.
func BenchmarkStreamIngestSharded(b *testing.B) {
	in := streamBenchCapture(20 * time.Second)
	e := stream.New(stream.Config{W: time.Second, RingCap: 512, Seed: 11, Shards: 4, BatchSize: 1024, Period: benchPeriod})
	cyc := newCycle(in)
	for i := 0; i < len(in.Packets)+10000; i++ {
		e.Ingest(cyc.next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.Ingest(cyc.next())
	}
	b.StopTimer()
	e.Drain()
}
