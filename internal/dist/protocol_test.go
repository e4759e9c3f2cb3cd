package dist

// Wire-payload round-trip coverage: every frame the coordinator and
// workers exchange must survive encode → decode bit-identically, on
// adversarial inputs as well as typical ones — a cell request whose
// window does not round-trip exactly would silently evaluate a
// different grid cell on the worker.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"trafficreshape/internal/experiments"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// roundTrip encodes with enc and decodes the single resulting frame.
func roundTrip(t *testing.T, enc func(b *bytes.Buffer) error) Message {
	t.Helper()
	var b bytes.Buffer
	if err := enc(&b); err != nil {
		t.Fatalf("encode: %v", err)
	}
	msg, err := ReadMessage(&b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if b.Len() != 0 {
		t.Fatalf("decode left %d trailing bytes", b.Len())
	}
	return msg
}

// TestCellRequestRoundTripProperty drives randomized requests —
// including extreme windows and durations — through the cell-batch
// codec, one per frame and then all in one frame. Exactness matters
// most for Config: a worker rebuilds the whole dataset from it, so
// every bit of every field must arrive.
func TestCellRequestRoundTripProperty(t *testing.T) {
	rng := stats.NewRNG(0xd15f)
	extremes := []time.Duration{
		0, 1, -1, time.Nanosecond, 5 * time.Second,
		math.MaxInt64, math.MinInt64, // max-size windows and beyond
	}
	var all []CellRequest
	for i := 0; i < 200; i++ {
		req := CellRequest{
			ID: rng.Uint64(),
			Cfg: experiments.Config{
				Seed:          rng.Uint64(),
				TrainDuration: time.Duration(rng.Uint64()),
				TestDuration:  time.Duration(rng.Uint64()),
				W:             time.Duration(rng.Uint64()),
			},
			Scheme: randomSchemeName(rng),
			App:    trace.Apps[int(rng.Uint64()%uint64(len(trace.Apps)))],
		}
		if i < len(extremes) {
			req.Cfg.W = extremes[i]
			req.Cfg.TrainDuration = extremes[len(extremes)-1-i]
		}
		msg := roundTrip(t, func(b *bytes.Buffer) error { return EncodeCellBatch(b, []CellRequest{req}) })
		if len(msg.Batch) != 1 {
			t.Fatalf("decoded message carries %d requests, want 1: %+v", len(msg.Batch), msg)
		}
		if !reflect.DeepEqual(msg.Batch[0], req) {
			t.Fatalf("round trip changed request:\nsent %+v\ngot  %+v", req, msg.Batch[0])
		}
		all = append(all, req)
	}
	msg := roundTrip(t, func(b *bytes.Buffer) error { return EncodeCellBatch(b, all) })
	if !reflect.DeepEqual(msg.Batch, all) {
		t.Fatal("round trip changed a request of the 200-cell batch")
	}
}

// randomSchemeName exercises the string path with the registry's real
// names (which include %, commas and brackets) plus arbitrary bytes.
func randomSchemeName(rng *stats.RNG) string {
	names := experiments.SchemeNames()
	switch rng.Uint64() % 3 {
	case 0:
		return names[int(rng.Uint64()%uint64(len(names)))]
	case 1:
		return "OR modulo i=size%3 — ΔΣ \"quoted\"\x00\n"
	default:
		raw := make([]byte, rng.Uint64()%64)
		for i := range raw {
			raw[i] = byte(' ' + rng.Uint64()%95) // printable ASCII
		}
		return string(raw)
	}
}

// TestCellResultRoundTripProperty randomizes confusion counts across
// the full int range through the result-batch codec; results merge
// into published tables, so a single off-by-anything bit is a wrong
// paper number.
func TestCellResultRoundTripProperty(t *testing.T) {
	rng := stats.NewRNG(0x0dd5)
	sameResult := func(got, res CellResult) {
		t.Helper()
		if got.Err != res.Err || got.ID != res.ID {
			t.Fatalf("round trip changed result envelope: sent %+v got %+v", res, got)
		}
		if len(got.Families) != len(res.Families) ||
			(len(res.Families) > 0 && !reflect.DeepEqual(got.Families, res.Families)) {
			t.Fatalf("round trip changed families:\nsent %+v\ngot  %+v", res.Families, got.Families)
		}
	}
	var all []CellResult
	for i := 0; i < 200; i++ {
		res := CellResult{ID: rng.Uint64()}
		if i%7 == 0 {
			res.Err = "experiments: unknown scheme \"nope\""
		} else {
			res.Families = make([]ml.Confusion, rng.Uint64()%5)
			for f := range res.Families {
				for r := 0; r < trace.NumApps; r++ {
					for c := 0; c < trace.NumApps; c++ {
						v := int(rng.Uint64())
						if i%11 == 0 {
							v = math.MaxInt64 - int(rng.Uint64()%3)
						}
						res.Families[f][r][c] = v
					}
				}
			}
		}
		msg := roundTrip(t, func(b *bytes.Buffer) error { return EncodeResultBatch(b, []CellResult{res}) })
		if len(msg.Results) != 1 {
			t.Fatalf("decoded message carries %d results, want 1: %+v", len(msg.Results), msg)
		}
		sameResult(msg.Results[0], res)
		all = append(all, res)
	}
	msg := roundTrip(t, func(b *bytes.Buffer) error { return EncodeResultBatch(b, all) })
	if len(msg.Results) != len(all) {
		t.Fatalf("200-result batch decoded to %d results", len(msg.Results))
	}
	for i := range all {
		sameResult(msg.Results[i], all[i])
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{Magic: protoMagic, Version: ProtoVersion, Slots: 17, Auth: AuthTag("secret", []byte{1, 2, 3})}
	msg := roundTrip(t, func(b *bytes.Buffer) error { return EncodeHello(b, h) })
	if msg.Hello == nil || *msg.Hello != h {
		t.Fatalf("hello round trip: sent %+v got %+v", h, msg.Hello)
	}
}

// TestCellRequestCarriesTraceRef: a captured cell's request ships its
// trace ref exactly — the worker resolves its dataset by these
// digests, so a mangled slot would evaluate a different dataset. The
// wire carries digests as raw SHA-256 bytes, so a slot that is not a
// hex SHA-256 must be refused at encode time, never shipped altered.
func TestCellRequestCarriesTraceRef(t *testing.T) {
	ref := experiments.TraceSetRef{
		Train: make([]string, trace.NumApps),
		Test:  make([]string, trace.NumApps),
	}
	ref.Train[2] = trace.Digest(randomTrace(stats.NewRNG(2), 3))
	ref.Test[5] = trace.Digest(randomTrace(stats.NewRNG(5), 3))
	req := CellRequest{ID: 3, Scheme: "OR", App: trace.Video, Traces: &ref}
	msg := roundTrip(t, func(b *bytes.Buffer) error { return EncodeCellBatch(b, []CellRequest{req}) })
	if len(msg.Batch) != 1 || msg.Batch[0].Traces == nil {
		t.Fatalf("trace ref lost in flight: %+v", msg)
	}
	if !reflect.DeepEqual(*msg.Batch[0].Traces, ref) {
		t.Fatalf("trace ref changed in flight: %+v vs %+v", *msg.Batch[0].Traces, ref)
	}
	// Synthetic requests must not grow a ref on the way.
	plain := CellRequest{ID: 4, Scheme: "FH", App: trace.Gaming}
	msg = roundTrip(t, func(b *bytes.Buffer) error { return EncodeCellBatch(b, []CellRequest{plain}) })
	if len(msg.Batch) != 1 || msg.Batch[0].Traces != nil {
		t.Fatalf("synthetic request acquired a trace ref: %+v", msg)
	}
	// Short and non-lowercase-hex digests would not survive the raw
	// encoding unchanged; the encoder must refuse them.
	for _, bad := range []string{"aa11", strings.ToUpper(ref.Train[2])} {
		short := experiments.TraceSetRef{Test: []string{bad}}
		err := EncodeCellBatch(io.Discard, []CellRequest{{ID: 5, Scheme: "OR", Traces: &short}})
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("digest %q: encode returned %v, want ErrBadFrame", bad, err)
		}
	}
}

func TestTraceHaveRoundTrip(t *testing.T) {
	for _, have := range []TraceHave{{}, {Digests: []string{"d1", "d2", "d3"}}} {
		msg := roundTrip(t, func(b *bytes.Buffer) error { return EncodeTraceHave(b, have) })
		if msg.Have == nil {
			t.Fatalf("decoded message has no trace-have: %+v", msg)
		}
		if len(msg.Have.Digests) != len(have.Digests) ||
			(len(have.Digests) > 0 && !reflect.DeepEqual(msg.Have.Digests, have.Digests)) {
			t.Fatalf("trace-have changed in flight: %+v vs %+v", msg.Have, have)
		}
	}
}

// TestChallengeRoundTrip covers both the fixed-nonce form and the
// crypto/rand form, plus the worker-side exact-frame reader.
func TestChallengeRoundTrip(t *testing.T) {
	fixed := []byte{9, 8, 7, 6}
	msg := roundTrip(t, func(b *bytes.Buffer) error {
		nonce, err := EncodeChallenge(b, fixed)
		if err == nil && !bytes.Equal(nonce, fixed) {
			t.Fatalf("EncodeChallenge rewrote the provided nonce")
		}
		return err
	})
	if !bytes.Equal(msg.Challenge, fixed) {
		t.Fatalf("challenge changed in flight: %x", msg.Challenge)
	}

	var b bytes.Buffer
	generated, err := EncodeChallenge(&b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(generated) != nonceLen {
		t.Fatalf("generated nonce is %d bytes, want %d", len(generated), nonceLen)
	}
	got, err := ReadChallenge(&b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, generated) {
		t.Fatal("ReadChallenge decoded a different nonce")
	}
	if b.Len() != 0 {
		t.Fatalf("ReadChallenge left %d trailing bytes", b.Len())
	}
}

// TestReadChallengeGuardsTheDoor mirrors the hello guard on the
// worker side: the coordinator's first frame is the only thing an
// unvalidated peer controls.
func TestReadChallengeGuardsTheDoor(t *testing.T) {
	// A plaintext coordinator's hello-kinded frame is not a challenge.
	var wrongKind bytes.Buffer
	if err := EncodeHello(&wrongKind, Hello{Magic: protoMagic, Version: ProtoVersion}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadChallenge(&wrongKind); err == nil {
		t.Error("hello frame accepted as challenge")
	}
	// An absurd length must be refused before allocation.
	var huge bytes.Buffer
	huge.Write([]byte{kindChallenge, 0xff, 0xff, 0xff, 0x3f})
	if _, err := ReadChallenge(&huge); err == nil {
		t.Error("1 GiB challenge accepted")
	}
	// Raw TLS bytes (a worker dialing plaintext into a TLS port sees
	// these) must error, not hang.
	if _, err := ReadChallenge(bytes.NewReader([]byte{0x16, 0x03, 0x01, 0x02, 0x00, 0x01})); err == nil {
		t.Error("TLS record header accepted as challenge")
	}
}

// TestAuthTagProperties: the tag binds both key and nonce.
func TestAuthTagProperties(t *testing.T) {
	nonce := []byte{1, 2, 3, 4}
	tag := AuthTag("key", nonce)
	if len(tag) != 64 {
		t.Fatalf("tag %q is not hex sha-256", tag)
	}
	if AuthTag("key", nonce) != tag {
		t.Error("tag is not deterministic")
	}
	if AuthTag("other", nonce) == tag {
		t.Error("different keys share a tag")
	}
	if AuthTag("key", []byte{1, 2, 3, 5}) == tag {
		t.Error("different nonces share a tag")
	}
}

func TestShutdownRoundTrip(t *testing.T) {
	msg := roundTrip(t, func(b *bytes.Buffer) error { return EncodeShutdown(b) })
	if !msg.Shutdown {
		t.Fatalf("shutdown round trip decoded %+v", msg)
	}
}

// TestTraceRoundTrip ships traces through the compressed preload
// codec: the empty trace, a single extreme packet (maximum timestamp,
// size and sequence), and a randomized trace.
func TestTraceRoundTrip(t *testing.T) {
	rng := stats.NewRNG(0x7ace)
	cases := []*trace.Trace{
		trace.New(0), // empty
		extremeTrace(),
		randomTrace(rng, 500),
	}
	for i, tr := range cases {
		p := TracePayload{App: trace.Apps[i%len(trace.Apps)], Trace: tr}
		msg := roundTrip(t, func(b *bytes.Buffer) error { return EncodeTraceCompressed(b, p) })
		if msg.TraceZ == nil {
			t.Fatalf("case %d: decoded message has no trace: %+v", i, msg)
		}
		if msg.TraceZ.App != p.App {
			t.Fatalf("case %d: app %v != %v", i, msg.TraceZ.App, p.App)
		}
		if len(msg.TraceZ.Trace.Packets) != len(tr.Packets) {
			t.Fatalf("case %d: %d packets != %d", i, len(msg.TraceZ.Trace.Packets), len(tr.Packets))
		}
		if len(tr.Packets) > 0 && !reflect.DeepEqual(msg.TraceZ.Trace.Packets, tr.Packets) {
			t.Fatalf("case %d: packets changed in flight", i)
		}
	}
}

// extremeTrace holds one packet at the representation limits of the
// binary trace codec.
func extremeTrace() *trace.Trace {
	tr := trace.New(1)
	tr.Append(trace.Packet{
		Time: math.MaxInt64,
		Size: math.MaxInt32,
		Dir:  trace.Downlink,
		App:  trace.Apps[len(trace.Apps)-1],
		Chan: 255,
		MAC:  [6]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		RSSI: -120.5,
		Seq:  0x0fff,
	})
	return tr
}

func randomTrace(rng *stats.RNG, n int) *trace.Trace {
	tr := trace.New(n)
	for i := 0; i < n; i++ {
		var mac [6]byte
		for b := range mac {
			mac[b] = byte(rng.Uint64())
		}
		dir := trace.Uplink
		if rng.Uint64()%2 == 0 {
			dir = trace.Downlink
		}
		tr.Append(trace.Packet{
			Time: time.Duration(rng.Uint64() % uint64(math.MaxInt64)),
			Size: int(int32(rng.Uint64())),
			Dir:  dir,
			App:  trace.Apps[int(rng.Uint64()%uint64(len(trace.Apps)))],
			Chan: int(byte(rng.Uint64())),
			MAC:  mac,
			RSSI: -float64(rng.Uint64()%256) - 0.5, // exact in the codec's µdB fixed point
			Seq:  uint16(rng.Uint64()) & 0x0fff,
		})
	}
	return tr
}

// TestReadHelloGuardsTheDoor: the opening frame of a connection is
// the only thing an unvalidated peer controls, so it must be
// rejected cheaply — no giant allocations from a stray's bytes read
// as a length prefix — and must not read one byte past its own
// frame, so pipelined frames behind a genuine hello survive.
func TestReadHelloGuardsTheDoor(t *testing.T) {
	// A stray HTTP client: 'G' is not the hello kind.
	b := bytes.NewBufferString("GET / HTTP/1.1\r\n")
	if _, err := ReadHello(b); err == nil {
		t.Error("HTTP request accepted as hello")
	}
	// A hello-kinded frame with an absurd length must be refused
	// before allocation.
	var huge bytes.Buffer
	huge.Write([]byte{kindHello, 0xff, 0xff, 0xff, 0x3f})
	if _, err := ReadHello(&huge); err == nil {
		t.Error("1 GiB hello accepted")
	}
	// A genuine hello with a pipelined frame behind it: the hello
	// decodes and the next frame is fully intact afterwards.
	var pipelined bytes.Buffer
	want := Hello{Magic: protoMagic, Version: ProtoVersion, Slots: 3}
	if err := EncodeHello(&pipelined, want); err != nil {
		t.Fatal(err)
	}
	req := CellRequest{ID: 7, Scheme: "OR", App: trace.Apps[0]}
	if err := EncodeCellBatch(&pipelined, []CellRequest{req}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHello(&pipelined)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("hello changed in flight: %+v != %+v", got, want)
	}
	msg, err := ReadMessage(&pipelined)
	if err != nil {
		t.Fatalf("pipelined frame after hello was corrupted: %v", err)
	}
	if len(msg.Batch) != 1 || !reflect.DeepEqual(msg.Batch[0], req) {
		t.Errorf("pipelined request changed in flight: %+v", msg)
	}
}

// TestReadMessageRejectsGarbage: corrupt streams must error, not
// hang or allocate absurd buffers.
func TestReadMessageRejectsGarbage(t *testing.T) {
	// Unknown frame kind.
	var b bytes.Buffer
	b.Write([]byte{0xEE, 0, 0, 0, 0})
	if _, err := ReadMessage(&b); err == nil {
		t.Error("unknown kind accepted")
	}
	// Implausible length prefix.
	b.Reset()
	b.Write([]byte{kindCellBatch, 0xff, 0xff, 0xff, 0xff})
	if _, err := ReadMessage(&b); err == nil {
		t.Error("implausible length accepted")
	}
	// Truncated payload.
	b.Reset()
	b.Write([]byte{kindCellBatch, 10, 0, 0, 0, 'x'})
	if _, err := ReadMessage(&b); err == nil {
		t.Error("truncated payload accepted")
	}
	// Payload that is not JSON.
	b.Reset()
	if err := writeFrame(&b, kindTraceHave, []byte("not json")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(&b); err == nil {
		t.Error("malformed JSON accepted")
	}
	// The retired v2 kinds (per-cell JSON request and result, plain
	// trace preload) are bad frames even with well-formed payloads.
	for kind, payload := range retiredFramePayloads(t) {
		b.Reset()
		if err := writeFrame(&b, kind, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadMessage(&b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("retired kind %d: ReadMessage returned %v, want ErrBadFrame", kind, err)
		}
	}
}

// retiredFramePayloads returns a well-formed payload of each retired
// v2 frame kind, keyed by kind.
func retiredFramePayloads(tb testing.TB) map[byte][]byte {
	tb.Helper()
	req, err := json.Marshal(CellRequest{ID: 7, Scheme: "Original", App: trace.Video})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := json.Marshal(CellResult{ID: 7, Families: []ml.Confusion{{}}})
	if err != nil {
		tb.Fatal(err)
	}
	var tr bytes.Buffer
	tr.WriteByte(byte(trace.Gaming))
	if err := trace.WriteBinary(&tr, extremeTrace()); err != nil {
		tb.Fatal(err)
	}
	return map[byte][]byte{kindCellRequest: req, kindCellResult: res, kindTrace: tr.Bytes()}
}

// TestFrameKindValuesPinned: frame kinds are wire bytes. Retiring the
// v2 kinds must not renumber the ones still spoken.
func TestFrameKindValuesPinned(t *testing.T) {
	kinds := []struct {
		name      string
		got, want byte
	}{
		{"hello", kindHello, 1},
		{"cell-request (reserved)", kindCellRequest, 2},
		{"cell-result (reserved)", kindCellResult, 3},
		{"trace (reserved)", kindTrace, 4},
		{"shutdown", kindShutdown, 5},
		{"challenge", kindChallenge, 6},
		{"trace-have", kindTraceHave, 7},
		{"cell-batch", kindCellBatch, 8},
		{"result-batch", kindResultBatch, 9},
		{"trace-z", kindTraceZ, 10},
		{"ping", kindPing, 11},
		{"pong", kindPong, 12},
	}
	for _, k := range kinds {
		if k.got != k.want {
			t.Errorf("%s frame kind = %d, want %d", k.name, k.got, k.want)
		}
	}
}
