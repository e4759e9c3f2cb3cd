package dist

// Fuzz coverage for the frame decoders. The coordinator port faces
// arbitrary bytes — strays, scanners, version-skewed peers — on two
// surfaces: ReadHello/ReadMessage during the handshake and the
// steady-state frame stream. Neither may panic, hang, or allocate
// absurdly on garbage, and everything they accept must re-encode and
// decode to the same message (a frame that silently mutates in a
// round trip would evaluate the wrong grid cell somewhere).

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"trafficreshape/internal/experiments"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/trace"
)

// fuzzSeedFrames encodes one specimen of every frame kind the protocol
// speaks — the seed corpus mirrors the round-trip unit tests.
func fuzzSeedFrames(f *testing.F) [][]byte {
	f.Helper()
	var frames [][]byte
	add := func(enc func(b *bytes.Buffer) error) {
		var b bytes.Buffer
		if err := enc(&b); err != nil {
			f.Fatal(err)
		}
		frames = append(frames, b.Bytes())
	}
	add(func(b *bytes.Buffer) error {
		return EncodeHello(b, Hello{Magic: protoMagic, Version: ProtoVersion, Slots: 4, Auth: AuthTag("k", []byte{1, 2})})
	})
	add(func(b *bytes.Buffer) error { return EncodeTraceHave(b, TraceHave{Digests: []string{"aa", "bb"}}) })
	add(func(b *bytes.Buffer) error {
		_, err := EncodeChallenge(b, []byte{0xde, 0xad, 0xbe, 0xef})
		return err
	})
	add(func(b *bytes.Buffer) error { return EncodeShutdown(b) })
	// Binary dispatch and preload frames.
	add(func(b *bytes.Buffer) error {
		ref := experiments.TraceSetRef{
			Train: []string{digest64("aa"), ""},
			Test:  []string{digest64("bb")},
		}
		return EncodeCellBatch(b, []CellRequest{
			{ID: 1, Cfg: experiments.Config{Seed: 3, W: time.Second}, Scheme: "Original", App: trace.Video},
			{ID: 2, Scheme: "OR+morph", App: trace.Gaming, Traces: &ref},
		})
	})
	add(func(b *bytes.Buffer) error {
		var conf ml.Confusion
		conf[1][2] = 5
		return EncodeResultBatch(b, []CellResult{
			{ID: 1, Families: []ml.Confusion{conf}},
			{ID: 2, Err: "boom"},
			{ID: 3, Families: []ml.Confusion{conf, conf}, Cached: true},
		})
	})
	add(func(b *bytes.Buffer) error {
		tr := trace.New(1)
		tr.Append(trace.Packet{Time: time.Second, Size: 100, Dir: trace.Uplink, App: trace.Gaming})
		return EncodeTraceCompressed(b, TracePayload{App: trace.Gaming, Trace: tr})
	})
	add(func(b *bytes.Buffer) error { return EncodePing(b, 10*time.Second) })
	add(func(b *bytes.Buffer) error { return EncodePong(b) })
	return frames
}

// digest64 expands a two-hex-char seed into a well-formed 64-char
// digest string for wire tests.
func digest64(seed string) string {
	d := ""
	for len(d) < 64 {
		d += seed
	}
	return d[:64]
}

// reencode writes msg back out through the matching encoder, or
// reports false for kinds with no re-encoding invariant to check.
func reencode(b *bytes.Buffer, msg Message) (bool, error) {
	switch {
	case msg.Hello != nil:
		return true, EncodeHello(b, *msg.Hello)
	case msg.Have != nil:
		return true, EncodeTraceHave(b, *msg.Have)
	case msg.Challenge != nil:
		_, err := EncodeChallenge(b, msg.Challenge)
		return true, err
	case msg.Shutdown:
		return true, EncodeShutdown(b)
	case len(msg.Batch) > 0:
		return true, EncodeCellBatch(b, msg.Batch)
	case len(msg.Results) > 0:
		return true, EncodeResultBatch(b, msg.Results)
	case msg.TraceZ != nil:
		return true, EncodeTraceCompressed(b, *msg.TraceZ)
	case msg.Ping != nil:
		return true, EncodePing(b, *msg.Ping)
	case msg.Pong:
		return true, EncodePong(b)
	}
	return false, nil
}

// sameMessage compares the payload-bearing fields of two messages.
func sameMessage(a, b Message) bool {
	switch {
	case a.TraceZ != nil:
		// Traces round-trip by content digest (byte-level and NaN-safe
		// — a hostile peer can craft NaN RSSI bits, which DeepEqual
		// would wrongly call unequal); the *Trace pointers and slice
		// capacities differ structurally.
		return b.TraceZ != nil && a.TraceZ.App == b.TraceZ.App &&
			trace.Digest(a.TraceZ.Trace) == trace.Digest(b.TraceZ.Trace)
	default:
		return reflect.DeepEqual(a, b)
	}
}

// FuzzReadMessage hardens the steady-state decoder: garbage must
// error (never panic or hang), and accepted frames must survive
// decode → encode → decode unchanged. The retired v2 kinds seed the
// rejection side with well-formed payloads.
func FuzzReadMessage(f *testing.F) {
	for _, frame := range fuzzSeedFrames(f) {
		f.Add(frame)
	}
	retired := retiredFramePayloads(f)
	for _, kind := range []byte{kindCellRequest, kindCellResult, kindTrace} {
		var b bytes.Buffer
		if err := writeFrame(&b, kind, retired[kind]); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte{0xEE, 0, 0, 0, 0})                      // unknown kind
	f.Add([]byte{kindCellBatch, 0xff, 0xff, 0xff, 0xff}) // absurd length
	f.Add([]byte{kindCellBatch, 10, 0, 0, 0, 'x'})       // truncated payload
	f.Add(append([]byte{kindTraceHave, 8, 0, 0, 0}, []byte("not json")...))
	f.Add(append([]byte{kindCellResult, 8, 0, 0, 0}, []byte("not json")...))

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var b bytes.Buffer
		ok, err := reencode(&b, msg)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		if !ok {
			t.Fatalf("decoded message carries no payload: %+v", msg)
		}
		back, err := ReadMessage(&b)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !sameMessage(msg, back) {
			t.Fatalf("round trip changed message:\nfirst  %+v\nsecond %+v", msg, back)
		}
	})
}

// FuzzReadHello hardens both unauthenticated opening reads, run on
// the same input: ReadHello (whatever a stray sends the coordinator
// as its first frame) and ReadChallenge (whatever a peer posing as
// the coordinator sends a worker before anything is authenticated).
// Each must return promptly with its own frame kind or an error —
// bounded allocation, no panic — and never consume bytes past its own
// frame.
func FuzzReadHello(f *testing.F) {
	var good bytes.Buffer
	if err := EncodeHello(&good, Hello{Magic: protoMagic, Version: ProtoVersion, Slots: 2}); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	var challenge bytes.Buffer
	if _, err := EncodeChallenge(&challenge, []byte{1, 2, 3, 4}); err != nil {
		f.Fatal(err)
	}
	f.Add(challenge.Bytes())
	f.Add([]byte("GET / HTTP/1.1\r\n"))
	f.Add([]byte{kindHello, 0xff, 0xff, 0xff, 0x3f})
	f.Add([]byte{kindChallenge, 0xff, 0xff, 0xff, 0x3f})
	f.Add([]byte{kindChallenge, 0x01, 0x10, 0, 0})     // one byte over the opening-frame cap
	f.Add([]byte{kindChallenge, 4, 0, 0, 0, '0', '0'}) // payload completed by the stream behind it
	f.Add([]byte{0x16, 0x03, 0x01, 0x02, 0x00})        // a TLS ClientHello record header

	f.Fuzz(func(t *testing.T, data []byte) {
		trailer := []byte{0xAB, 0xCD}
		in := append(append([]byte{}, data...), trailer...)
		r := bytes.NewReader(in)
		var h Hello
		var err error
		boundedAlloc(t, "ReadHello", func() { h, err = ReadHello(r) })
		if err == nil {
			// Accepted: the remaining stream must start exactly where
			// the hello frame ended (ReadHello promises no readahead),
			// so the encoded form must reproduce the consumed prefix.
			var b bytes.Buffer
			if err := EncodeHello(&b, h); err != nil {
				t.Fatalf("re-encode of accepted hello failed: %v", err)
			}
			consumed := len(in) - r.Len()
			if consumed > len(data) {
				t.Fatalf("ReadHello read %d bytes past its input", consumed-len(data))
			}
			back, err := ReadHello(bytes.NewReader(data[:consumed]))
			if err != nil || back != h {
				t.Fatalf("hello round trip changed: %+v vs %+v (%v)", h, back, err)
			}
		}

		r = bytes.NewReader(in)
		var nonce []byte
		boundedAlloc(t, "ReadChallenge", func() { nonce, err = ReadChallenge(r) })
		if err != nil {
			return
		}
		if in[0] != kindChallenge {
			t.Fatalf("frame kind %d accepted as a challenge", in[0])
		}
		if len(nonce) > maxHelloFrame {
			t.Fatalf("accepted a %d-byte challenge, cap %d", len(nonce), maxHelloFrame)
		}
		// Any bytes are a valid nonce, so the frame may end inside the
		// trailer; what must hold is that exactly the frame's bytes were
		// consumed, and that they re-encode from the nonce.
		var b bytes.Buffer
		if _, err := EncodeChallenge(&b, nonce); err != nil {
			t.Fatalf("re-encode of accepted challenge failed: %v", err)
		}
		if consumed := in[:len(in)-r.Len()]; !bytes.Equal(b.Bytes(), consumed) {
			t.Fatalf("challenge round trip changed: %x vs consumed %x", b.Bytes(), consumed)
		}
	})
}

// boundedAlloc runs fn and fails the test if it allocated more than a
// few opening-frame caps' worth of memory: a header's claimed length
// alone must never buy an allocation.
func boundedAlloc(t *testing.T, what string, fn func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*maxHelloFrame {
		t.Fatalf("%s allocated %d bytes", what, grew)
	}
}
