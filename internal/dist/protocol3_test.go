package dist

// Round-trip and bounds coverage for the v3 binary payload codec:
// everything the encoder accepts must decode back equal, and the decoder must reject corrupt counts,
// versions, and truncations before allocating for them.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"trafficreshape/internal/experiments"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/trace"
)

func TestCellBatchRoundTrip(t *testing.T) {
	ref := experiments.TraceSetRef{
		Train: []string{digest64("1a"), "", digest64("2b")},
		Test:  []string{digest64("3c")},
	}
	reqs := []CellRequest{
		{
			ID:     7,
			Cfg:    experiments.Config{Seed: 42, TrainDuration: time.Minute, TestDuration: time.Second, W: 5 * time.Second},
			Scheme: "OR modulo i=size%3",
			App:    trace.Video,
		},
		{ID: 8, Scheme: "OR+morph", App: trace.Gaming, Traces: &ref},
		{ID: 9, Scheme: "Original", App: trace.Chatting, Traces: &experiments.TraceSetRef{}},
	}
	var b bytes.Buffer
	if err := EncodeCellBatch(&b, reqs); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(&b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(msg.Batch, reqs) {
		t.Fatalf("cell batch changed in round trip:\nsent %+v\ngot  %+v", reqs, msg.Batch)
	}
}

func TestResultBatchRoundTrip(t *testing.T) {
	var conf ml.Confusion
	conf[0][1] = 3
	conf[trace.NumApps-1][trace.NumApps-1] = 1 << 20
	results := []CellResult{
		{ID: 1, Families: []ml.Confusion{conf}},
		{ID: 2, Err: "store miss: deadbeef"},
		{ID: 3, Families: []ml.Confusion{conf, {}, conf}, Cached: true},
	}
	var b bytes.Buffer
	if err := EncodeResultBatch(&b, results); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(&b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(msg.Results, results) {
		t.Fatalf("result batch changed in round trip:\nsent %+v\ngot  %+v", results, msg.Results)
	}
}

func TestTraceCompressedRoundTrip(t *testing.T) {
	tr := trace.New(int(trace.Gaming))
	for i := 0; i < 2000; i++ {
		tr.Append(trace.Packet{
			Time: time.Duration(i) * time.Millisecond,
			Size: 100 + i%7,
			Dir:  trace.Uplink,
			App:  trace.Gaming,
		})
	}
	var z, plain bytes.Buffer
	if err := EncodeTraceCompressed(&z, TracePayload{App: trace.Gaming, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(&plain, tr); err != nil {
		t.Fatal(err)
	}
	if z.Len() >= plain.Len() {
		t.Errorf("compressed preload (%d bytes) not smaller than the plain trace codec (%d bytes)", z.Len(), plain.Len())
	}
	msg, err := ReadMessage(&z)
	if err != nil {
		t.Fatal(err)
	}
	if msg.TraceZ == nil {
		t.Fatalf("decoded message carries no trace-z: %+v", msg)
	}
	if msg.TraceZ.App != trace.Gaming {
		t.Errorf("app label = %v, want %v", msg.TraceZ.App, trace.Gaming)
	}
	if got, want := trace.Digest(msg.TraceZ.Trace), trace.Digest(tr); got != want {
		t.Errorf("trace content changed in compressed round trip: %s vs %s", got, want)
	}
}

func TestEncodeCellBatchRejects(t *testing.T) {
	var b bytes.Buffer
	if err := EncodeCellBatch(&b, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if err := EncodeCellBatch(&b, make([]CellRequest, maxBatchCells+1)); err == nil {
		t.Error("oversized batch accepted")
	}
	long := make([]byte, maxSchemeName+1)
	if err := EncodeCellBatch(&b, []CellRequest{{Scheme: string(long)}}); err == nil {
		t.Error("oversized scheme name accepted")
	}
	bad := experiments.TraceSetRef{Train: []string{"not hex"}}
	if err := EncodeCellBatch(&b, []CellRequest{{Scheme: "x", Traces: &bad}}); err == nil {
		t.Error("malformed ref digest accepted")
	}
}

// corruptBatch encodes a one-cell batch and returns its raw payload
// (framing stripped) for byte-level tampering.
func corruptBatch(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := EncodeCellBatch(&b, []CellRequest{{ID: 1, Scheme: "Original", App: trace.Browsing}}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()[5:] // kind(1) + length(4)
}

func TestDecodeCellBatchRejectsCorruption(t *testing.T) {
	good := corruptBatch(t)
	cases := map[string][]byte{
		"bad version":    append([]byte{batchVersion + 1}, good[1:]...),
		"bad dimension":  append([]byte{good[0], byte(trace.NumApps + 1)}, good[2:]...),
		"zero count":     append([]byte{good[0], good[1], 0, 0}, good[4:]...),
		"absurd count":   append([]byte{good[0], good[1], 0xff, 0xff}, good[4:]...),
		"truncated":      good[:len(good)-3],
		"trailing bytes": append(append([]byte{}, good...), 0xAB),
		"empty":          {},
	}
	for name, payload := range cases {
		if _, err := decodeCellBatch(payload); err == nil {
			t.Errorf("%s: corrupt cell batch accepted", name)
		}
	}
	if _, err := decodeCellBatch(good); err != nil {
		t.Fatalf("control: intact payload rejected: %v", err)
	}
}

// TestCellRequestAppOutOfRange: the application byte indexes the
// worker's per-application datasets, so a frame naming an application
// beyond trace.NumApps must die in the decoder with ErrBadFrame —
// evaluating it dereferences a dataset that does not exist and takes
// the worker process down — and the encoder must refuse to write one.
func TestCellRequestAppOutOfRange(t *testing.T) {
	good := corruptBatch(t)
	appAt := len(good) - 2 // app(u8) | hasRef(u8)=0 close the request
	if trace.App(good[appAt]) != trace.Browsing {
		t.Fatalf("app byte not at offset %d", appAt)
	}
	for _, app := range []byte{byte(trace.NumApps), 0xff} {
		payload := append([]byte(nil), good...)
		payload[appAt] = app
		if _, err := decodeCellBatch(payload); !errors.Is(err, ErrBadFrame) {
			t.Errorf("app %d: decode error %v, want ErrBadFrame", app, err)
		}
		var b bytes.Buffer
		if err := writeFrame(&b, kindCellBatch, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadMessage(&b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("app %d: ReadMessage error %v, want ErrBadFrame", app, err)
		}
		b.Reset()
		if err := EncodeCellBatch(&b, []CellRequest{{ID: 1, Scheme: "Original", App: trace.App(app)}}); !errors.Is(err, ErrBadFrame) {
			t.Errorf("app %d: encode error %v, want ErrBadFrame", app, err)
		}
	}
	good[appAt] = byte(trace.NumApps - 1)
	if _, err := decodeCellBatch(good); err != nil {
		t.Fatalf("control: last application rejected: %v", err)
	}
}

func TestDecodeResultBatchRejectsCorruption(t *testing.T) {
	var b bytes.Buffer
	if err := EncodeResultBatch(&b, []CellResult{{ID: 1, Families: []ml.Confusion{{}}}}); err != nil {
		t.Fatal(err)
	}
	good := b.Bytes()[5:]
	cases := map[string][]byte{
		"bad version":    append([]byte{batchVersion + 1}, good[1:]...),
		"truncated":      good[:len(good)-2],
		"trailing bytes": append(append([]byte{}, good...), 0x01),
	}
	for name, payload := range cases {
		if _, err := decodeResultBatch(payload); err == nil {
			t.Errorf("%s: corrupt result batch accepted", name)
		}
	}
	if _, err := decodeResultBatch(good); err != nil {
		t.Fatalf("control: intact payload rejected: %v", err)
	}
}

// TestFrameGoldenBytes pins the v3 frame encodings byte for byte: each
// fixed input must hash to the value the encoders produced before the
// codecs moved onto the shared wire kit.
func TestFrameGoldenBytes(t *testing.T) {
	var conf ml.Confusion
	conf[0][0] = 250
	conf[2][5] = -3
	conf[trace.NumApps-1][1] = 1 << 20
	ref := experiments.TraceSetRef{Train: []string{digest64("1a"), "", digest64("2b")}, Test: []string{digest64("3c")}}
	plain := CellRequest{
		ID:     7,
		Cfg:    experiments.Config{Seed: 42, TrainDuration: time.Minute, TestDuration: time.Second, W: 5 * time.Second},
		Scheme: "OR modulo i=size%3",
		App:    trace.Video,
	}
	withRef := CellRequest{ID: 1 << 40, Cfg: experiments.Config{Seed: 3}, Scheme: "OR+morph", App: trace.Gaming, Traces: &ref}
	cases := []struct {
		name, want string
		enc        func(*bytes.Buffer) error
	}{
		{"cell batch", "2da75a8d1cec5e5ab28831ab702e9e0afc7276cc6e6f499f6477508265eaab0b", func(b *bytes.Buffer) error {
			return EncodeCellBatch(b, []CellRequest{plain})
		}},
		{"cell batch with trace ref", "47209420e5e26bbb9a62e02370865a7d6c9c3090d610a492a324b7d6bc756538", func(b *bytes.Buffer) error {
			return EncodeCellBatch(b, []CellRequest{plain, withRef})
		}},
		{"result batch", "1b64e1c0c02edabf68f13576dfd69415d47480115235509d68daea4cd224e2cc", func(b *bytes.Buffer) error {
			return EncodeResultBatch(b, []CellResult{
				{ID: 1, Families: []ml.Confusion{conf}},
				{ID: 2, Err: "store miss: deadbeef"},
				{ID: 3, Families: []ml.Confusion{conf, {}, conf}, Cached: true},
			})
		}},
		{"ping", "d117660b6191f40097754641998c484dfbd8cfdc6dae879169e3ea1c8243022f", func(b *bytes.Buffer) error { return EncodePing(b, 10*time.Second) }},
		{"challenge", "9829c9608ac238af2b01ca73b400b32cd7dea917e11e49b4e295cc4e8cadb0a4", func(b *bytes.Buffer) error {
			nonce := make([]byte, nonceLen)
			for i := range nonce {
				nonce[i] = byte(3 * i)
			}
			_, err := EncodeChallenge(b, nonce)
			return err
		}},
	}
	for _, c := range cases {
		var b bytes.Buffer
		if err := c.enc(&b); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); got != c.want {
			t.Errorf("%s bytes changed: sha256 %s, want %s (%d bytes)", c.name, got, c.want, b.Len())
		}
	}
}
