package stream

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"trafficreshape/internal/mac"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// TestCheckpointRestoreEquivalence is the tentpole contract: a run
// killed after a checkpoint and resumed from it — into a fresh
// engine, at any shard count — reports byte-identically to the
// uninterrupted run. Exercised with the self-audit on so the
// checkpoint carries mid-stream classifier state, leak streaks and
// open windows, not just counters.
//
// Two crafted flows pin the ring shapes restore has to rebuild: one
// holds 23 packets in its open window at the cut (a ring part-way
// through growing, holding a count that is no power of two), the other
// 50, which at RingCap 37 has wrapped the ring 13 slots past its
// origin. Both configurations must resume byte-identically. A second
// checkpoint, once the crafted flows have sent 30 more packets each,
// must also match the uninterrupted run's byte for byte: it carries
// every held packet's interface assignment, which the report only
// samples through the audit's verdicts.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	cls := auditClassifier(t, 5*time.Second)
	base := capture(t, 30*time.Second, 42)
	cutAt := base.Packets[len(base.Packets)/2].Time
	partial, wrapped := flowMAC(20), flowMAC(21)
	crafted := trace.New(0)
	for _, f := range []struct {
		addr   mac.Address
		before int
	}{{partial, 23}, {wrapped, 50}} {
		for i := 0; i < f.before+30; i++ {
			crafted.Append(trace.Packet{
				Time: cutAt + time.Duration(i-f.before)*time.Millisecond + time.Microsecond,
				Size: 80 + 37*i%1400,
				Dir:  trace.Direction(i % 2),
				MAC:  f.addr,
			})
		}
	}
	crafted.Sort()
	in := trace.Merge(base, crafted)
	cut := 0
	for cut < len(in.Packets) && in.Packets[cut].Time < cutAt {
		cut++
	}
	cut2 := cut
	for cut2 < len(in.Packets) && in.Packets[cut2].Time <= cutAt+40*time.Millisecond {
		cut2++
	}

	for _, ringCap := range []int{0, 37} {
		cfg := func(shards int) Config {
			return Config{Seed: 11, Shards: shards, Classifier: cls, BatchSize: 64, RingCap: ringCap}
		}
		full := New(cfg(4))
		for _, p := range in.Packets[:cut2] {
			full.Ingest(p)
		}
		var wantCk bytes.Buffer
		if err := full.Checkpoint(&wantCk); err != nil {
			t.Fatalf("ring=%d uninterrupted checkpoint: %v", ringCap, err)
		}
		for _, p := range in.Packets[cut2:] {
			full.Ingest(p)
		}
		want := renderReport(t, full.Drain())

		for _, shards := range []int{0, 1, 4, 8} {
			a := New(cfg(shards))
			for _, p := range in.Packets[:cut] {
				a.Ingest(p)
			}
			var ck bytes.Buffer
			if err := a.Checkpoint(&ck); err != nil {
				t.Fatalf("ring=%d shards=%d checkpoint: %v", ringCap, shards, err)
			}
			a.Drain() // the "crashed" daemon's goroutines; its report is discarded
			if shards == 0 {
				checkCraftedRings(t, ck.Bytes(), ringCap, map[mac.Address]int{partial: 23, wrapped: 50})
			}

			b := New(cfg(shards))
			if err := b.Restore(bytes.NewReader(ck.Bytes())); err != nil {
				t.Fatalf("ring=%d shards=%d restore: %v", ringCap, shards, err)
			}
			if got := b.Offered(); got != int64(cut) {
				t.Fatalf("ring=%d shards=%d restored offset %d, want %d", ringCap, shards, got, cut)
			}
			for _, p := range in.Packets[cut:cut2] {
				b.Ingest(p)
			}
			var ck2 bytes.Buffer
			if err := b.Checkpoint(&ck2); err != nil {
				t.Fatalf("ring=%d shards=%d second checkpoint: %v", ringCap, shards, err)
			}
			if !bytes.Equal(ck2.Bytes(), wantCk.Bytes()) {
				t.Errorf("ring=%d shards=%d: checkpoint after resuming differs from the uninterrupted run's", ringCap, shards)
			}
			for _, p := range in.Packets[cut2:] {
				b.Ingest(p)
			}
			if got := renderReport(t, b.Drain()); !bytes.Equal(got, want) {
				t.Errorf("ring=%d shards=%d resumed report diverges from uninterrupted run:\n--- full ---\n%s--- resumed ---\n%s",
					ringCap, shards, want, got)
			}
		}
	}
}

// checkCraftedRings confirms the checkpoint really carries the ring
// shapes TestCheckpointRestoreEquivalence means to exercise: each
// crafted flow holds its open-window packets, capped at the ring
// bound, with the overflow counted as evicted.
func checkCraftedRings(t *testing.T, ck []byte, ringCap int, pushed map[mac.Address]int) {
	t.Helper()
	d, err := decodeCheckpoint(bytes.NewReader(ck))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if ringCap == 0 {
		ringCap = 4096
	}
	for addr, n := range pushed {
		var snap *flowSnap
		for i := range d.flows {
			if d.flows[i].addr == addr {
				snap = &d.flows[i]
			}
		}
		if snap == nil {
			t.Fatalf("ring=%d: crafted flow %s missing from the checkpoint", ringCap, addr)
		}
		held := min(n, ringCap)
		if len(snap.ring) != held || snap.evicted != int64(n-held) {
			t.Fatalf("ring=%d: flow %s checkpointed %d packets, %d evicted; want %d, %d",
				ringCap, addr, len(snap.ring), snap.evicted, held, n-held)
		}
	}
}

// TestCheckpointRoundTrip: decode(encode(decode(x))) is stable and
// encoding is deterministic — two checkpoints of the same engine
// state are byte-identical.
func TestCheckpointRoundTrip(t *testing.T) {
	in := capture(t, 10*time.Second, 7)
	e := New(Config{Seed: 9, Shards: 2, BatchSize: 32})
	e.IngestTrace(in)
	var a, b bytes.Buffer
	if err := e.Checkpoint(&a); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := e.Checkpoint(&b); err != nil {
		t.Fatalf("second checkpoint: %v", err)
	}
	e.Drain()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two checkpoints of the same state differ (%d vs %d bytes)", a.Len(), b.Len())
	}
	d, err := decodeCheckpoint(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(d.flows) == 0 || d.offered == 0 {
		t.Fatalf("decoded checkpoint is empty: flows=%d offered=%d", len(d.flows), d.offered)
	}
	var again bytes.Buffer
	if err := encodeCheckpoint(&again, d); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(again.Bytes(), a.Bytes()) {
		t.Fatalf("decode→encode is not an involution (%d vs %d bytes)", again.Len(), a.Len())
	}
}

// TestCheckpointDetectsCorruption: any single flipped byte fails the
// CRC footer; a truncated file fails cleanly too.
func TestCheckpointDetectsCorruption(t *testing.T) {
	in := capture(t, 5*time.Second, 3)
	e := New(Config{Seed: 1})
	e.IngestTrace(in)
	var ck bytes.Buffer
	if err := e.Checkpoint(&ck); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	e.Drain()
	raw := ck.Bytes()
	for _, pos := range []int{5, len(raw) / 2, len(raw) - 5} {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x40
		fresh := New(Config{Seed: 1})
		err := fresh.Restore(bytes.NewReader(mut))
		fresh.Drain()
		if !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("flip at %d: got %v, want ErrBadCheckpoint", pos, err)
		}
	}
	fresh := New(Config{Seed: 1})
	err := fresh.Restore(bytes.NewReader(raw[:len(raw)/3]))
	fresh.Drain()
	if !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("truncated file: got %v, want ErrBadCheckpoint", err)
	}
}

// TestCheckpointConfigMismatch: a checkpoint only restores into an
// engine built with the identical defense configuration.
func TestCheckpointConfigMismatch(t *testing.T) {
	in := capture(t, 5*time.Second, 3)
	e := New(Config{Seed: 1})
	e.IngestTrace(in)
	var ck bytes.Buffer
	if err := e.Checkpoint(&ck); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	e.Drain()
	for _, wrong := range []Config{
		{Seed: 2},
		{Seed: 1, W: 7 * time.Second},
		{Seed: 1, Interfaces: 5},
		{Seed: 1, Period: 123},
	} {
		fresh := New(wrong)
		err := fresh.Restore(bytes.NewReader(ck.Bytes()))
		fresh.Drain()
		if err == nil || !strings.Contains(err.Error(), "different configuration") {
			t.Errorf("config %+v: got %v, want configuration mismatch", wrong, err)
		}
	}
	// Restore into a used engine is refused.
	used := New(Config{Seed: 1})
	used.Ingest(trace.Packet{MAC: flowMAC(0), Size: 100})
	if err := used.Restore(bytes.NewReader(ck.Bytes())); err == nil {
		t.Error("restore into a used engine succeeded")
	}
	used.Drain()
}

// TestDrainIdempotent: Drain may be called repeatedly — signal
// handlers and deferred cleanup race to it — and always returns the
// same report.
func TestDrainIdempotent(t *testing.T) {
	for _, shards := range []int{0, 4} {
		in := capture(t, 5*time.Second, 8)
		e := New(Config{Seed: 2, Shards: shards})
		e.IngestTrace(in)
		r1 := e.Drain()
		r2 := e.Drain()
		if r1 != r2 {
			t.Errorf("shards=%d: second Drain returned a different Report", shards)
		}
		if !bytes.Equal(renderReport(t, r1), renderReport(t, r2)) {
			t.Errorf("shards=%d: drained reports differ", shards)
		}
	}
}

// TestShardIndexNibbleCollisions: the 16-entry routing cache is keyed
// on the address's low nibble, so flows whose addresses collide in
// a[5]&0xf must still route stably (same shard on every call) and
// correctly (the full-hash shard), with no cross-talk between the
// colliding flows.
func TestShardIndexNibbleCollisions(t *testing.T) {
	e := New(Config{Seed: 4, Shards: 4, BatchSize: 8})
	defer e.Drain()
	// Eight addresses, all sharing low nibble 0x3, differing elsewhere.
	addrs := make([]mac.Address, 8)
	for i := range addrs {
		addrs[i] = mac.Address{0x02, 0xaa, byte(i), 0x00, byte(i * 17), byte(i<<4 | 0x3)}
	}
	want := make([]int, len(addrs))
	for i, a := range addrs {
		want[i] = int(flowHash(a) % uint64(e.nshards))
	}
	// Adversarial interleave: every lookup evicts the previous flow
	// from the cache line before it is asked again.
	for round := 0; round < 100; round++ {
		for i, a := range addrs {
			if got := e.shardIndex(a); got != want[i] {
				t.Fatalf("round %d: shardIndex(%s) = %d, want %d", round, a, got, want[i])
			}
		}
	}
}

// TestShardIndexCollisionRouting drives the colliding flows through
// the full ingest path and checks no packet lands on the wrong flow.
func TestShardIndexCollisionRouting(t *testing.T) {
	a := mac.Address{0x02, 0x00, 0x00, 0x00, 0x00, 0x13}
	b := mac.Address{0x02, 0x00, 0x00, 0x00, 0x00, 0x23} // same low nibble
	e := New(Config{Seed: 4, Shards: 4, BatchSize: 4})
	const perFlow = 500
	for i := 0; i < perFlow; i++ {
		ts := time.Duration(i) * time.Millisecond
		e.Ingest(trace.Packet{Time: ts, Size: 100 + i%200, MAC: a})
		e.Ingest(trace.Packet{Time: ts, Size: 300 + i%100, MAC: b})
	}
	rep := e.Drain()
	if len(rep.Flows) != 2 {
		t.Fatalf("got %d flows, want 2", len(rep.Flows))
	}
	for _, f := range rep.Flows {
		if f.Packets != perFlow {
			t.Errorf("flow %s has %d packets, want %d", f.MAC, f.Packets, perFlow)
		}
	}
}

// TestCheckpointGoldenBytes pins the TRCK encoding byte for byte: a
// fixed integer-only ingest (no floating point, so the flow state is
// the same on every platform) must checkpoint to the bytes the encoder
// produced before the codecs moved onto the shared wire kit, at 1 and
// 4 shards alike. RingCap 37 leaves some rings wrapped and some still
// growing.
func TestCheckpointGoldenBytes(t *testing.T) {
	rng := stats.NewRNG(5)
	in := trace.New(0)
	var tc time.Duration
	for i := 0; i < 3000; i++ {
		tc += time.Duration(rng.Intn(5000)) * time.Microsecond
		in.Append(trace.Packet{
			Time: tc,
			Size: rng.IntRange(28, 1576),
			Dir:  trace.Direction(rng.Intn(2)),
			MAC:  flowMAC(rng.Intn(6)),
			RSSI: -50,
			Seq:  uint16(i),
		})
	}
	const want = "b179b0a46fe08c795bfce057f21249c9d94e27d9de872a8d4e68ab30913fb062"
	for _, shards := range []int{1, 4} {
		e := New(Config{Seed: 9, Shards: shards, BatchSize: 32, RingCap: 37})
		e.IngestTrace(in)
		var ck bytes.Buffer
		if err := e.Checkpoint(&ck); err != nil {
			t.Fatalf("shards=%d checkpoint: %v", shards, err)
		}
		e.Drain()
		if got := fmt.Sprintf("%x", sha256.Sum256(ck.Bytes())); got != want {
			t.Errorf("shards=%d TRCK bytes changed: sha256 %s, want %s (%d bytes)", shards, got, want, ck.Len())
		}
	}
}
