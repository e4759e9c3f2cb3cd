package attack

import (
	"testing"
	"time"

	"trafficreshape/internal/mac"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// buildSeqTrace emits n frames across the given addresses. With
// shared=true one counter feeds every address (the vulnerable
// configuration); otherwise each address gets an independent counter
// with a random initial offset (the defense).
func buildSeqTrace(addrs []mac.Address, n int, shared bool, seed uint64) *trace.Trace {
	r := stats.NewRNG(seed)
	tr := trace.New(n)
	var sharedCtr uint16
	ctrs := make([]uint16, len(addrs))
	for i := range ctrs {
		ctrs[i] = uint16(r.Intn(4096))
	}
	t := time.Duration(0)
	for i := 0; i < n; i++ {
		t += time.Duration(r.IntRange(1, 20)) * time.Millisecond
		who := r.Intn(len(addrs))
		var seq uint16
		if shared {
			seq = sharedCtr & 0x0fff
			sharedCtr++
		} else {
			seq = ctrs[who] & 0x0fff
			ctrs[who]++
		}
		tr.Append(trace.Packet{Time: t, MAC: addrs[who], Seq: seq, Size: 100})
	}
	return tr
}

func seqAddrs(r *stats.RNG, n int) []mac.Address {
	out := make([]mac.Address, n)
	for i := range out {
		out[i] = mac.RandomAddress(r)
	}
	return out
}

func TestSequenceConsistencySharedCounter(t *testing.T) {
	r := stats.NewRNG(1)
	addrs := seqAddrs(r, 2)
	tr := buildSeqTrace(addrs, 500, true, 2)
	flows := tr.ByMAC()
	c := SequenceConsistency(flows[addrs[0]], flows[addrs[1]], 4)
	if c < 0.95 {
		t.Fatalf("shared-counter consistency = %.3f, want ~1", c)
	}
}

func TestSequenceConsistencyIndependentCounters(t *testing.T) {
	r := stats.NewRNG(3)
	addrs := seqAddrs(r, 2)
	tr := buildSeqTrace(addrs, 500, false, 4)
	flows := tr.ByMAC()
	c := SequenceConsistency(flows[addrs[0]], flows[addrs[1]], 4)
	if c > 0.6 {
		t.Fatalf("independent-counter consistency = %.3f, want low", c)
	}
}

func TestSequenceConsistencyEmpty(t *testing.T) {
	if c := SequenceConsistency(trace.New(0), trace.New(0), 4); c != 0 {
		t.Fatalf("empty consistency = %v, want 0", c)
	}
}

// TestSequenceConsistencyTiesKeepFirstFlowFirst pins the tie order:
// packets of a and b that share a timestamp are merged a-first, so
// the counter reads 10,11,12,13 one way round and 11,10,13,12 the
// other.
func TestSequenceConsistencyTiesKeepFirstFlowFirst(t *testing.T) {
	flow := func(seqs ...uint16) *trace.Trace {
		tr := trace.New(len(seqs))
		for i, s := range seqs {
			tr.Append(trace.Packet{Time: time.Duration(i) * time.Millisecond, Seq: s})
		}
		return tr
	}
	a, b := flow(10, 12), flow(11, 13)
	if c := SequenceConsistency(a, b, 1); c != 1 {
		t.Fatalf("SequenceConsistency(a, b) = %v, want 1 (a's packet first on each tie)", c)
	}
	if c := SequenceConsistency(b, a, 1); c != 0 {
		t.Fatalf("SequenceConsistency(b, a) = %v, want 0 (b's packet first on each tie)", c)
	}
}

// TestLinkBySequenceAttackAndDefense: with a shared counter the three
// virtual addresses of one card merge into one group (and the
// unrelated station stays out); with per-interface counters nothing
// links.
func TestLinkBySequenceAttackAndDefense(t *testing.T) {
	r := stats.NewRNG(5)
	cardA := seqAddrs(r, 3)
	other := seqAddrs(r, 1)

	// Vulnerable: card A shares a counter; the other station has its
	// own.
	vulnerable := trace.Merge(
		buildSeqTrace(cardA, 600, true, 6),
		buildSeqTrace(other, 200, false, 7),
	)
	groups := LinkBySequence(vulnerable, 8, 0.8)
	var linked []mac.Address
	for _, g := range groups {
		if len(g) > 1 {
			if linked != nil {
				t.Fatalf("more than one multi-address group: %v", groups)
			}
			linked = g
		}
	}
	if len(linked) != 3 {
		t.Fatalf("shared counter: linked group = %v, want the 3 virtual addresses", linked)
	}
	inGroup := map[mac.Address]bool{}
	for _, a := range linked {
		inGroup[a] = true
	}
	for _, a := range cardA {
		if !inGroup[a] {
			t.Fatalf("virtual address %v not linked", a)
		}
	}
	if inGroup[other[0]] {
		t.Fatal("unrelated station wrongly linked")
	}

	// Defended: per-interface counters.
	defended := trace.Merge(
		buildSeqTrace(cardA, 600, false, 8),
		buildSeqTrace(other, 200, false, 9),
	)
	for _, g := range LinkBySequence(defended, 8, 0.8) {
		if len(g) > 1 {
			t.Fatalf("per-interface counters still linked: %v", g)
		}
	}
}

func TestSeqStepWraps(t *testing.T) {
	if got := seqStep(4095, 0); got != 1 {
		t.Fatalf("seqStep(4095, 0) = %d, want 1 (mod-4096 wrap)", got)
	}
	if got := seqStep(0, 4095); got != 4095 {
		t.Fatalf("seqStep(0, 4095) = %d, want 4095", got)
	}
	if got := seqStep(7, 7); got != 0 {
		t.Fatalf("seqStep(7, 7) = %d, want 0", got)
	}
}
