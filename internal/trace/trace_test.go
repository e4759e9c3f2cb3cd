package trace

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"trafficreshape/internal/mac"
	"trafficreshape/internal/stats"
)

func mkPacket(tms int, size int, dir Direction, app App) Packet {
	return Packet{Time: time.Duration(tms) * time.Millisecond, Size: size, Dir: dir, App: app}
}

func TestAppNames(t *testing.T) {
	if len(Apps) != NumApps {
		t.Fatalf("Apps has %d entries, want %d", len(Apps), NumApps)
	}
	for _, a := range Apps {
		parsed, err := ParseApp(a.String())
		if err != nil || parsed != a {
			t.Errorf("ParseApp(%q) = %v, %v", a.String(), parsed, err)
		}
		parsed, err = ParseApp(a.Short())
		if err != nil || parsed != a {
			t.Errorf("ParseApp(%q) = %v, %v", a.Short(), parsed, err)
		}
	}
	if _, err := ParseApp("nonsense"); err == nil {
		t.Error("ParseApp should reject unknown names")
	}
}

func TestDirectionString(t *testing.T) {
	if Uplink.String() != "up" || Downlink.String() != "down" {
		t.Fatal("direction names wrong")
	}
}

func TestTraceBasics(t *testing.T) {
	tr := New(4)
	tr.Append(mkPacket(0, 100, Downlink, Browsing))
	tr.Append(mkPacket(10, 200, Uplink, Browsing))
	tr.Append(mkPacket(30, 300, Downlink, Browsing))
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if tr.Duration() != 30*time.Millisecond {
		t.Fatalf("Duration = %v, want 30ms", tr.Duration())
	}
	if tr.Bytes() != 600 {
		t.Fatalf("Bytes = %d, want 600", tr.Bytes())
	}
	sizes := tr.Sizes()
	if len(sizes) != 3 || sizes[0] != 100 || sizes[2] != 300 {
		t.Fatalf("Sizes = %v", sizes)
	}
}

func TestSortAndSorted(t *testing.T) {
	tr := New(3)
	tr.Append(mkPacket(30, 1, Downlink, Browsing))
	tr.Append(mkPacket(10, 2, Downlink, Browsing))
	tr.Append(mkPacket(20, 3, Downlink, Browsing))
	if tr.Sorted() {
		t.Fatal("trace should report unsorted")
	}
	tr.Sort()
	if !tr.Sorted() {
		t.Fatal("trace should be sorted after Sort")
	}
	if tr.Packets[0].Size != 2 || tr.Packets[2].Size != 1 {
		t.Fatalf("sort produced wrong order: %v", tr.Packets)
	}
}

func TestSortStability(t *testing.T) {
	tr := New(3)
	tr.Append(Packet{Time: time.Second, Size: 1})
	tr.Append(Packet{Time: time.Second, Size: 2})
	tr.Append(Packet{Time: time.Second, Size: 3})
	tr.Sort()
	for i, want := range []int{1, 2, 3} {
		if tr.Packets[i].Size != want {
			t.Fatalf("stable sort violated: %v", tr.Packets)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	tr := New(1)
	tr.Append(mkPacket(0, 100, Downlink, Browsing))
	c := tr.Clone()
	c.Packets[0].Size = 999
	if tr.Packets[0].Size != 100 {
		t.Fatal("clone shares packet storage")
	}
}

func TestByDirection(t *testing.T) {
	tr := New(4)
	tr.Append(mkPacket(0, 1, Downlink, Browsing))
	tr.Append(mkPacket(1, 2, Uplink, Browsing))
	tr.Append(mkPacket(2, 3, Downlink, Browsing))
	down, up := tr.ByDirection()
	if down.Len() != 2 || up.Len() != 1 {
		t.Fatalf("split wrong: down=%d up=%d", down.Len(), up.Len())
	}
}

func TestByMAC(t *testing.T) {
	a := mac.Address{1}
	b := mac.Address{2}
	tr := New(4)
	tr.Append(Packet{Time: 1, MAC: a})
	tr.Append(Packet{Time: 2, MAC: b})
	tr.Append(Packet{Time: 3, MAC: a})
	groups := tr.ByMAC()
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	if groups[a].Len() != 2 || groups[b].Len() != 1 {
		t.Fatal("per-MAC counts wrong")
	}
	if !groups[a].Sorted() {
		t.Fatal("per-MAC trace lost time order")
	}
}

func TestMerge(t *testing.T) {
	t1 := New(2)
	t1.Append(mkPacket(0, 1, Downlink, Browsing))
	t1.Append(mkPacket(20, 2, Downlink, Browsing))
	t2 := New(1)
	t2.Append(mkPacket(10, 3, Downlink, Chatting))
	m := Merge(t1, t2)
	if m.Len() != 3 || !m.Sorted() {
		t.Fatalf("merge wrong: %v", m.Packets)
	}
	if m.Packets[1].Size != 3 {
		t.Fatal("merge did not interleave by time")
	}
}

// mergeReference is the original Merge: concatenate in argument
// order, then stable-sort by time.
func mergeReference(traces []*Trace) []Packet {
	var all []Packet
	for _, t := range traces {
		all = append(all, t.Packets...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time < all[j].Time })
	return all
}

// tieHeavyTrace draws up to 200 packets (a fifth of the traces are
// empty) with timestamps from a 20 ms range, so equal timestamps
// within and across traces are common. Size tags each packet with its
// trace id and position, so any reordering of ties shows. sorted
// selects a time-ordered trace; otherwise the packets stay in draw
// order.
func tieHeavyTrace(r *stats.RNG, id int, sorted bool) *Trace {
	n := 0
	if r.Intn(5) != 0 {
		n = r.Intn(201)
	}
	tr := New(n)
	for i := 0; i < n; i++ {
		tr.Append(Packet{
			Time: time.Duration(r.Intn(20)) * time.Millisecond,
			Size: id*1000 + i,
			Dir:  Direction(r.Intn(2)),
			App:  App(r.Intn(NumApps)),
			Seq:  uint16(r.Intn(4096)),
		})
	}
	if sorted {
		tr.Packets = mergeReference([]*Trace{tr})
	}
	return tr
}

// TestMergeMatchesStableSortReference pins Merge, both its linear
// two-way path and its concatenate-and-sort fallback, to the original
// algorithm on random tie-heavy inputs, and checks that the result
// never aliases an input.
func TestMergeMatchesStableSortReference(t *testing.T) {
	r := stats.NewRNG(13)
	linear := 0
	for _, k := range []int{0, 1, 2, 3, 7} {
		for trial := 0; trial < 200; trial++ {
			in := make([]*Trace, k)
			before := make([][]Packet, k)
			allSorted := true
			for i := range in {
				in[i] = tieHeavyTrace(r, i+1, r.Intn(2) == 0)
				before[i] = slices.Clone(in[i].Packets)
				allSorted = allSorted && in[i].Sorted()
			}
			if k == 2 && allSorted {
				linear++
			}
			want := mergeReference(in)
			out := Merge(in...)
			if !slices.Equal(out.Packets, want) {
				t.Fatalf("k=%d trial %d: Merge differs from the stable-sort reference\n got %v\nwant %v", k, trial, out.Packets, want)
			}
			for i := range out.Packets {
				out.Packets[i] = Packet{Time: -1, Size: -1}
			}
			for i := range in {
				if !slices.Equal(in[i].Packets, before[i]) {
					t.Fatalf("k=%d trial %d: writing the merged trace changed input %d", k, trial, i)
				}
			}
		}
	}
	if linear == 0 {
		t.Fatal("no draw exercised the sorted two-input path")
	}
}

// TestSortMatchesSliceStable pins Trace.Sort to sort.SliceStable on
// the same tie-heavy inputs, sorted and unsorted.
func TestSortMatchesSliceStable(t *testing.T) {
	r := stats.NewRNG(14)
	for trial := 0; trial < 500; trial++ {
		tr := tieHeavyTrace(r, 1, r.Intn(4) == 0)
		want := mergeReference([]*Trace{tr})
		tr.Sort()
		if !slices.Equal(tr.Packets, want) {
			t.Fatalf("trial %d: Sort differs from sort.SliceStable\n got %v\nwant %v", trial, tr.Packets, want)
		}
	}
}

var mergeSink *Trace

// TestMergeAllocs holds the sorted two-input path to the result trace
// and its packet slice.
func TestMergeAllocs(t *testing.T) {
	a, b := randomWindowTrace(1, 500), randomWindowTrace(2, 300)
	allocs := testing.AllocsPerRun(100, func() { mergeSink = Merge(a, b) })
	if allocs > 2 {
		t.Fatalf("Merge of two sorted traces: %v allocs/op, want <= 2", allocs)
	}
}

func TestInterarrivalsIdleFilter(t *testing.T) {
	tr := New(4)
	tr.Append(mkPacket(0, 1, Downlink, Browsing))
	tr.Append(mkPacket(100, 1, Downlink, Browsing))
	tr.Append(mkPacket(10100, 1, Downlink, Browsing)) // 10 s idle gap
	tr.Append(mkPacket(10200, 1, Downlink, Browsing))
	all := tr.Interarrivals(0)
	if len(all) != 3 {
		t.Fatalf("unfiltered gaps = %d, want 3", len(all))
	}
	// Paper §IV-B: gaps beyond the eavesdropping window (5 s) are
	// filtered out of the interarrival statistics.
	filtered := tr.Interarrivals(5 * time.Second)
	if len(filtered) != 2 {
		t.Fatalf("filtered gaps = %d, want 2", len(filtered))
	}
	for _, g := range filtered {
		if g > 5 {
			t.Fatalf("filter kept a %vs gap", g)
		}
	}
}

func TestWindows(t *testing.T) {
	tr := New(0)
	// Packets at 0.5s, 1.5s, 5.5s → windows [0,5) and [5,10).
	tr.Append(Packet{Time: 500 * time.Millisecond, App: Gaming})
	tr.Append(Packet{Time: 1500 * time.Millisecond, App: Gaming})
	tr.Append(Packet{Time: 5500 * time.Millisecond, App: Gaming})
	ws := tr.Windows(5*time.Second, 1)
	if len(ws) != 2 {
		t.Fatalf("windows = %d, want 2", len(ws))
	}
	if len(ws[0].Packets) != 2 || len(ws[1].Packets) != 1 {
		t.Fatalf("window packet counts wrong: %d, %d", len(ws[0].Packets), len(ws[1].Packets))
	}
	if ws[0].App != Gaming {
		t.Fatal("window ground truth wrong")
	}
}

func TestWindowsMinPackets(t *testing.T) {
	tr := New(0)
	tr.Append(Packet{Time: 0})
	tr.Append(Packet{Time: 6 * time.Second})
	tr.Append(Packet{Time: 6500 * time.Millisecond})
	ws := tr.Windows(5*time.Second, 2)
	if len(ws) != 1 {
		t.Fatalf("windows = %d, want 1 (first window has too few packets)", len(ws))
	}
}

func TestWindowsSkipsEmptySpans(t *testing.T) {
	tr := New(0)
	tr.Append(Packet{Time: 0})
	tr.Append(Packet{Time: 100 * time.Second})
	ws := tr.Windows(5*time.Second, 1)
	if len(ws) != 2 {
		t.Fatalf("windows = %d, want 2 (long silence yields no windows)", len(ws))
	}
}

func TestWindowsMajorityLabel(t *testing.T) {
	tr := New(0)
	tr.Append(Packet{Time: 0, App: Chatting})
	tr.Append(Packet{Time: 1, App: Video})
	tr.Append(Packet{Time: 2, App: Video})
	ws := tr.Windows(time.Second, 1)
	if len(ws) != 1 || ws[0].App != Video {
		t.Fatalf("majority label wrong: %+v", ws)
	}
}

func TestWindowsPanicsOnBadW(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Windows(0) should panic")
		}
	}()
	New(0).Windows(0, 1)
}

func TestSummarize(t *testing.T) {
	tr := New(3)
	tr.Append(mkPacket(0, 100, Downlink, Browsing))
	tr.Append(mkPacket(1000, 200, Downlink, Browsing))
	tr.Append(mkPacket(2000, 300, Downlink, Browsing))
	s := tr.Summarize(0)
	if s.Packets != 3 || s.AvgSize != 200 {
		t.Fatalf("Summarize = %+v", s)
	}
	if s.AvgInterarrive != 1.0 {
		t.Fatalf("AvgInterarrive = %v, want 1.0", s.AvgInterarrive)
	}
	empty := New(0).Summarize(0)
	if empty.Packets != 0 || empty.AvgSize != 0 {
		t.Fatal("empty Summarize should be zero")
	}
}

func TestFilter(t *testing.T) {
	tr := New(3)
	tr.Append(mkPacket(0, 100, Downlink, Browsing))
	tr.Append(mkPacket(1, 2000, Downlink, Browsing))
	big := tr.Filter(func(p Packet) bool { return p.Size > 1000 })
	if big.Len() != 1 || big.Packets[0].Size != 2000 {
		t.Fatalf("filter wrong: %v", big.Packets)
	}
}

// Property: windows partition the packets they keep — every packet
// lands in exactly one window and total kept <= total packets.
func TestWindowsPartitionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		tr := New(0)
		tc := time.Duration(0)
		for i := 0; i < 200; i++ {
			tc += time.Duration(r.Intn(2000)) * time.Millisecond
			tr.Append(Packet{Time: tc, Size: 100, App: Browsing})
		}
		ws := tr.Windows(5*time.Second, 1)
		kept := 0
		for _, w := range ws {
			kept += len(w.Packets)
			for _, p := range w.Packets {
				if p.Time < w.Start || p.Time >= w.Start+w.W {
					return false
				}
			}
		}
		return kept == tr.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// windowsReference is the pre-zero-copy implementation of Windows,
// kept verbatim as the behavioral spec: it grows a fresh packet slice
// per window. The equivalence property below pins the zero-copy
// rewrite to it bit for bit.
func windowsReference(t *Trace, w time.Duration, minPackets int) []Window {
	if w <= 0 {
		panic("trace: window duration must be positive")
	}
	if len(t.Packets) == 0 {
		return nil
	}
	var out []Window
	start := t.Packets[0].Time
	var cur []Packet
	flush := func(winStart time.Duration) {
		if len(cur) >= minPackets {
			out = append(out, Window{Start: winStart, W: w, Packets: cur, App: majorityApp(cur)})
		}
		cur = nil
	}
	for _, p := range t.Packets {
		for p.Time >= start+w {
			flush(start)
			start += w
		}
		cur = append(cur, p)
	}
	flush(start)
	return out
}

func randomWindowTrace(seed uint64, n int) *Trace {
	r := stats.NewRNG(seed)
	tr := New(0)
	tc := time.Duration(0)
	for i := 0; i < n; i++ {
		tc += time.Duration(r.Intn(3000)) * time.Millisecond
		tr.Append(Packet{
			Time: tc,
			Size: r.IntRange(28, 1576),
			Dir:  Direction(r.Intn(2)),
			App:  App(r.Intn(NumApps)),
		})
	}
	return tr
}

func windowsEqual(a, b []Window) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Start != b[i].Start || a[i].W != b[i].W || a[i].App != b[i].App {
			return false
		}
		if len(a[i].Packets) != len(b[i].Packets) {
			return false
		}
		for j := range a[i].Packets {
			if a[i].Packets[j] != b[i].Packets[j] {
				return false
			}
		}
	}
	return true
}

// Property: the zero-copy Windows matches the slice-copying reference
// implementation exactly — same windows, same packets, same labels —
// across random traces, window lengths and packet floors.
func TestWindowsEquivalentToReference(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		r := stats.NewRNG(seed * 7779)
		tr := randomWindowTrace(seed, r.Intn(300))
		w := time.Duration(r.IntRange(1, 20)) * time.Second
		minPackets := r.Intn(4)
		got := tr.Windows(w, minPackets)
		want := windowsReference(tr, w, minPackets)
		if !windowsEqual(got, want) {
			t.Fatalf("seed %d: zero-copy windows diverge from reference (w=%v min=%d)", seed, w, minPackets)
		}
	}
}

// The zero-copy contract itself: every window's packet slice must
// alias the trace's backing array, not a copy.
func TestWindowsZeroCopy(t *testing.T) {
	tr := randomWindowTrace(3, 200)
	ws := tr.Windows(5*time.Second, 1)
	if len(ws) == 0 {
		t.Fatal("expected windows")
	}
	for _, w := range ws {
		if len(w.Packets) == 0 {
			continue
		}
		first := &w.Packets[0]
		aliased := false
		for i := range tr.Packets {
			if first == &tr.Packets[i] {
				aliased = true
				break
			}
		}
		if !aliased {
			t.Fatal("window packets are a copy, not a subslice of the trace")
		}
	}
}

// WindowsUnlabeled must produce the same windows with App zeroed, and
// AppendWindows must support scratch reuse without changing results.
func TestWindowsUnlabeledAndAppend(t *testing.T) {
	tr := randomWindowTrace(11, 250)
	labeled := tr.Windows(5*time.Second, 2)
	unlabeled := tr.WindowsUnlabeled(5*time.Second, 2)
	if len(labeled) != len(unlabeled) {
		t.Fatalf("labeled %d windows, unlabeled %d", len(labeled), len(unlabeled))
	}
	for i := range labeled {
		if unlabeled[i].App != 0 {
			t.Fatalf("unlabeled window %d has App %v", i, unlabeled[i].App)
		}
		unlabeled[i].App = labeled[i].App
	}
	if !windowsEqual(labeled, unlabeled) {
		t.Fatal("unlabeled windows differ beyond the label")
	}

	scratch := make([]Window, 0, 8)
	for round := 0; round < 3; round++ {
		scratch = tr.AppendWindows(scratch[:0], 5*time.Second, 2, true)
		if !windowsEqual(scratch, labeled) {
			t.Fatalf("round %d: reused AppendWindows buffer diverges", round)
		}
	}
}
