package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"trafficreshape/internal/mac"
	"trafficreshape/internal/stats"
)

func randomTrace(seed uint64, n int) *Trace {
	r := stats.NewRNG(seed)
	tr := New(n)
	tc := time.Duration(0)
	for i := 0; i < n; i++ {
		tc += time.Duration(r.Intn(100000)) * time.Microsecond
		tr.Append(Packet{
			Time: tc,
			Size: r.IntRange(28, 1576),
			Dir:  Direction(r.Intn(2)),
			App:  App(r.Intn(NumApps)),
			MAC:  mac.RandomAddress(r),
			Chan: []int{1, 6, 11}[r.Intn(3)],
			RSSI: -30 - 40*r.Float64(),
			Seq:  uint16(r.Intn(4096)),
		})
	}
	return tr
}

func tracesEqual(a, b *Trace) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Packets {
		pa, pb := a.Packets[i], b.Packets[i]
		if pa.Time != pb.Time || pa.Size != pb.Size || pa.Dir != pb.Dir ||
			pa.App != pb.App || pa.MAC != pb.MAC || pa.Chan != pb.Chan ||
			pa.Seq != pb.Seq {
			return false
		}
		if d := pa.RSSI - pb.RSSI; d > 1e-5 || d < -1e-5 {
			return false
		}
	}
	return true
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := randomTrace(1, 500)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tracesEqual(tr, got) {
		t.Fatal("binary round trip mismatch")
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, New(0)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("expected empty trace, got %d packets", got.Len())
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOPE0123456789ab")); err == nil {
		t.Fatal("bad magic should fail")
	}
}

func TestBinaryTruncated(t *testing.T) {
	tr := randomTrace(2, 10)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-17]
	if _, err := ReadBinary(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated stream should fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := randomTrace(3, 200)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("csv round trip count %d, want %d", got.Len(), tr.Len())
	}
	for i := range got.Packets {
		a, b := tr.Packets[i], got.Packets[i]
		if a.Size != b.Size || a.Dir != b.Dir || a.App != b.App || a.MAC != b.MAC {
			t.Fatalf("csv record %d mismatch: %+v vs %+v", i, a, b)
		}
		dt := a.Time - b.Time
		if dt < -time.Microsecond || dt > time.Microsecond {
			t.Fatalf("csv record %d time drift %v", i, dt)
		}
	}
}

func TestCSVMalformed(t *testing.T) {
	bad := []string{
		"time_s,size,dir,app,mac,chan,rssi,seq\n1.0,100\n",
		"time_s,size,dir,app,mac,chan,rssi,seq\nxx,100,down,browsing,00:11:22:33:44:55,1,-50,0\n",
		"time_s,size,dir,app,mac,chan,rssi,seq\n1.0,100,sideways,browsing,00:11:22:33:44:55,1,-50,0\n",
		"time_s,size,dir,app,mac,chan,rssi,seq\n1.0,100,down,mystery,00:11:22:33:44:55,1,-50,0\n",
		"time_s,size,dir,app,mac,chan,rssi,seq\n1.0,100,down,browsing,zz:11,1,-50,0\n",
		"time_s,size,dir,app,mac,chan,rssi,seq\n1.0,100,down,browsing,00:11:22:33:44:55,1,-50,banana\n",
	}
	for i, s := range bad {
		if _, err := ReadCSV(strings.NewReader(s)); err == nil {
			t.Errorf("malformed csv %d accepted", i)
		}
	}
}

// Property: binary round trip is lossless for arbitrary traces.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		tr := randomTrace(seed, int(n%64))
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return tracesEqual(tr, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryGoldenBytes pins the TRSH encoding byte for byte: the
// SHA-256 of a fixed mixed trace must match the value the encoder
// produced before the codecs moved onto the shared wire kit. A
// round-trip test cannot see a layout change that both sides agree
// on; this one can.
func TestBinaryGoldenBytes(t *testing.T) {
	tr := New(0)
	for _, p := range []Packet{
		{Time: 0, Size: 28, Dir: Uplink, App: Browsing, Chan: 1, RSSI: -42.5, Seq: 0},
		{Time: 1500 * time.Microsecond, Size: 1576, Dir: Downlink, App: Video,
			MAC: mac.Address{0x02, 0x00, 0x5e, 0x10, 0x20, 0x30}, Chan: 11, RSSI: -71.25, Seq: 4095},
		{Time: 3 * time.Second, Size: 512, Dir: Downlink, App: Gaming,
			MAC: mac.Address{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa}, Chan: 6, RSSI: math.Inf(-1), Seq: 0xffff},
		{Time: -time.Millisecond, Size: -1, Dir: Uplink, App: App(NumApps - 1), Chan: 255, RSSI: math.Float64frombits(0x7ff8_0000_dead_beef), Seq: 17},
		{Time: math.MaxInt64, Size: math.MaxInt32, Dir: Uplink, App: Chatting, Chan: 36, RSSI: 0, Seq: 2048},
	} {
		tr.Append(p)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	const want = "f92a50cd5302e96bba66d9217a0ca6f60d897e044520530e68a105acf6698c7c"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("TRSH bytes changed: sha256 %s, want %s (%d bytes)", got, want, buf.Len())
	}
}
