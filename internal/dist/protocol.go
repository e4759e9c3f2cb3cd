// Package dist distributes the experiment grid across worker
// processes: a coordinator implements experiments.Backend by shipping
// wire-addressed cells — (Config, scheme name, application) triples —
// to workers over TCP, and each worker rebuilds the dataset from the
// Config (datasets are pure functions of their Config) and evaluates
// the cell with the ordinary in-process code path.
//
// Three properties make the distributed run byte-identical to serial:
//
//  1. Cells are pure. A cell's result depends only on its request
//     triple, never on which worker ran it, when, or how many times —
//     so the coordinator reassigns cells of dead workers freely.
//  2. Results are index-addressed. The coordinator places each result
//     in the cell's grid slot; the engine's ordered merge and the
//     streaming collector then see exactly the serial layout.
//  3. Fallback is the same function. Any cell the transport cannot
//     deliver (no workers, worker death, unregistered scheme) is
//     evaluated in-process with experiments.EvalCell — the identical
//     code the workers run.
package dist

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"trafficreshape/internal/experiments"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/trace"
)

// Wire format (little-endian, mirroring internal/trace/codec): a
// connection carries length-prefixed frames both ways:
//
//	kind(u8) | length(u32) | payload(length bytes)
//
// The handshake frames (hello, trace-have) carry JSON payloads — cheap
// at these sizes and debuggable on the wire. Cell dispatch travels as
// binary cell-batch and result-batch frames, and captured traces as
// flate-compressed trace-z frames (protocol3.go has the layouts). The
// challenge frame's payload is the raw nonce.
//
// Handshake: the coordinator speaks first with a challenge frame
// carrying a random nonce; the worker answers with a hello whose Auth
// field is HMAC-SHA256(key, nonce) — so a shared-key coordinator
// admits only workers holding the key, and a captured nonce is useless
// for replay — followed immediately by a trace-have frame listing the
// digests its store already holds, which is what makes the
// captured-trace preload resumable across reconnects.

const (
	// ProtoVersion is the only protocol this build speaks. Every
	// worker is built from the same tree as its coordinator, so a hello
	// announcing any other version is rejected at the door.
	ProtoVersion = 3
	// protoMagic opens every Hello, guarding against strays dialing
	// the coordinator port.
	protoMagic = "TRDW"
	// nonceLen sizes the challenge nonce.
	nonceLen = 32
)

// Frame kinds. The numbering is part of the wire format: kinds 2–4
// belonged to the retired v2 per-cell JSON dialect and stay reserved,
// so every v3 kind keeps its byte and ReadMessage rejects the old
// ones as bad frames.
const (
	kindHello       byte = iota + 1
	kindCellRequest      // reserved: v2 JSON cell request
	kindCellResult       // reserved: v2 JSON cell result
	kindTrace            // reserved: v2 uncompressed trace preload
	kindShutdown
	kindChallenge
	kindTraceHave
	kindCellBatch
	kindResultBatch
	kindTraceZ
	// Heartbeat liveness frames. The coordinator pings on its liveness
	// interval; a worker answers each ping with a pong immediately
	// from its read loop, so silence in either direction means the
	// peer (or the path to it) is gone — not merely busy, because
	// evaluation runs outside both loops.
	kindPing
	kindPong
)

// maxFrame bounds a frame payload: large enough for any shipped
// trace, small enough to reject a corrupt length prefix before
// allocating.
const maxFrame = 1 << 30

// maxHelloFrame bounds the opening frame of a connection. Nothing on
// the other end has proven itself a worker yet — the coordinator's
// port is reachable by strays and scanners in the documented
// -dist-listen mode — so the handshake refuses to allocate more than
// this for an unvalidated peer. (A raw HTTP request's first bytes,
// read as a length prefix, would otherwise demand ~790 MB.)
const maxHelloFrame = 4096

// ErrBadFrame is returned when decoding a malformed frame stream.
var ErrBadFrame = errors.New("dist: bad frame")

// Hello is the worker's answer to the coordinator's challenge.
type Hello struct {
	Magic   string
	Version int
	// Slots is how many cells the worker evaluates concurrently; the
	// coordinator keeps at most this many of its cells in flight.
	Slots int
	// Auth is hex HMAC-SHA256 of the challenge nonce under the shared
	// key, empty when the worker has no key. A coordinator configured
	// with a key rejects hellos whose tag does not verify.
	Auth string `json:",omitempty"`
}

// TraceHave lists the content digests a worker's trace store already
// holds. Sent right behind the hello, it lets the coordinator skip
// re-pushing traces to a rejoining worker — the preload is resumable.
type TraceHave struct {
	Digests []string `json:",omitempty"`
}

// CellRequest addresses one grid cell. Everything a worker needs is
// here: the dataset is rebuilt from Cfg (plus, for captured cells,
// the store-resolved traces Traces names), the scheme from its
// registered name, and the cell's private RNG stream is derived from
// (Cfg.Seed, Scheme, App) inside the evaluation — the same
// seed-derived stream ID the serial engine uses, so placement cannot
// move a result bit.
type CellRequest struct {
	ID     uint64
	Cfg    experiments.Config
	Scheme string
	App    trace.App
	// Traces, when set, names the captured traces the cell's dataset
	// is built from. The coordinator guarantees every named digest was
	// pushed to the worker (earlier on this connection or a previous
	// one) before the request is sent.
	Traces *experiments.TraceSetRef
}

// CellResult carries one evaluated cell back.
type CellResult struct {
	ID  uint64
	Err string
	// Families holds one confusion matrix per classifier family, in
	// the dataset's classifier order.
	Families []ml.Confusion
	// Cached marks an answer served from the worker's result cache
	// rather than a fresh evaluation (results are pure, so the bytes
	// are identical either way — the flag only feeds placement stats).
	Cached bool
}

// AuthTag computes the hello's Auth field: hex HMAC-SHA256 of the
// challenge nonce under the shared key.
func AuthTag(key string, nonce []byte) string {
	mac := hmac.New(sha256.New, []byte(key))
	mac.Write(nonce)
	return hex.EncodeToString(mac.Sum(nil))
}

// TracePayload is a shipped trace: the application it belongs to plus
// the packets themselves.
type TracePayload struct {
	App   trace.App
	Trace *trace.Trace
}

// writeFrame emits one frame. Callers serialize writes per
// connection.
func writeFrame(w io.Writer, kind byte, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("%w: %d-byte payload exceeds limit", ErrBadFrame, len(payload))
	}
	var hdr [5]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, rejecting implausible lengths.
func readFrame(r io.Reader) (kind byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:5])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("%w: implausible %d-byte payload", ErrBadFrame, n)
	}
	// Grow with delivered bytes, not the declared length: a peer that
	// claims a near-maxFrame payload and sends nothing must not buy a
	// gigabyte allocation with a 5-byte header.
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
	}
	return hdr[0], buf.Bytes(), nil
}

// writeJSONFrame marshals v into a frame of the given kind.
func writeJSONFrame(w io.Writer, kind byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return writeFrame(w, kind, payload)
}

// EncodeHello frames the worker handshake.
func EncodeHello(w io.Writer, h Hello) error {
	return writeJSONFrame(w, kindHello, h)
}

// EncodeTraceHave frames the worker's store announcement.
func EncodeTraceHave(w io.Writer, h TraceHave) error {
	return writeJSONFrame(w, kindTraceHave, h)
}

// EncodeChallenge frames the coordinator's opening nonce (generated
// fresh from crypto/rand when nonce is nil) and returns the nonce the
// hello's auth tag must cover.
func EncodeChallenge(w io.Writer, nonce []byte) ([]byte, error) {
	if nonce == nil {
		nonce = make([]byte, nonceLen)
		if _, err := rand.Read(nonce); err != nil {
			return nil, fmt.Errorf("dist: challenge nonce: %w", err)
		}
	}
	if err := writeFrame(w, kindChallenge, nonce); err != nil {
		return nil, err
	}
	return nonce, nil
}

// ReadChallenge decodes a connection's opening frame on the worker
// side. Like ReadHello it reads exactly the frame's bytes and bounds
// the payload before allocating — the peer has not authenticated
// itself as a coordinator yet.
func ReadChallenge(r io.Reader) ([]byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		// The transport error stays wrapped (unlike the format errors
		// below): a worker must distinguish "the coordinator hung up"
		// from "the coordinator spoke garbage".
		return nil, fmt.Errorf("%w: short challenge header: %w", ErrBadFrame, err)
	}
	if hdr[0] != kindChallenge {
		return nil, fmt.Errorf("%w: first frame kind %d, want challenge", ErrBadFrame, hdr[0])
	}
	n := binary.LittleEndian.Uint32(hdr[1:5])
	if n > maxHelloFrame {
		return nil, fmt.Errorf("%w: %d-byte challenge refused", ErrBadFrame, n)
	}
	nonce := make([]byte, n)
	if _, err := io.ReadFull(r, nonce); err != nil {
		return nil, fmt.Errorf("%w: truncated challenge: %v", ErrBadFrame, err)
	}
	return nonce, nil
}

// Message is one decoded frame.
type Message struct {
	Hello     *Hello
	Have      *TraceHave
	Challenge []byte
	Shutdown  bool
	// Batch and Results carry the binary batched dispatch frames;
	// TraceZ carries a compressed preload (already decompressed).
	Batch   []CellRequest
	Results []CellResult
	TraceZ  *TracePayload
	// Ping carries the coordinator's liveness interval (so the worker
	// knows the cadence silence is measured against); Pong is the
	// worker's answer.
	Ping *time.Duration
	Pong bool
}

// ReadMessage decodes the next frame from r.
func ReadMessage(r io.Reader) (Message, error) {
	kind, payload, err := readFrame(r)
	if err != nil {
		return Message{}, err
	}
	switch kind {
	case kindHello:
		var h Hello
		if err := json.Unmarshal(payload, &h); err != nil {
			return Message{}, fmt.Errorf("%w: hello: %v", ErrBadFrame, err)
		}
		return Message{Hello: &h}, nil
	case kindCellRequest, kindCellResult, kindTrace:
		return Message{}, fmt.Errorf("%w: retired v2 frame kind %d", ErrBadFrame, kind)
	case kindTraceHave:
		var h TraceHave
		if err := json.Unmarshal(payload, &h); err != nil {
			return Message{}, fmt.Errorf("%w: trace have: %v", ErrBadFrame, err)
		}
		return Message{Have: &h}, nil
	case kindCellBatch:
		batch, err := decodeCellBatch(payload)
		if err != nil {
			return Message{}, err
		}
		return Message{Batch: batch}, nil
	case kindResultBatch:
		results, err := decodeResultBatch(payload)
		if err != nil {
			return Message{}, err
		}
		return Message{Results: results}, nil
	case kindTraceZ:
		p, err := decodeTraceZ(payload)
		if err != nil {
			return Message{}, err
		}
		return Message{TraceZ: &p}, nil
	case kindPing:
		if len(payload) != 8 {
			return Message{}, fmt.Errorf("%w: %d-byte ping payload, want 8", ErrBadFrame, len(payload))
		}
		iv := time.Duration(binary.LittleEndian.Uint64(payload))
		if iv < 0 {
			return Message{}, fmt.Errorf("%w: negative ping interval", ErrBadFrame)
		}
		return Message{Ping: &iv}, nil
	case kindPong:
		if len(payload) != 0 {
			return Message{}, fmt.Errorf("%w: %d-byte pong payload, want empty", ErrBadFrame, len(payload))
		}
		return Message{Pong: true}, nil
	case kindChallenge:
		return Message{Challenge: payload}, nil
	case kindShutdown:
		return Message{Shutdown: true}, nil
	default:
		return Message{}, fmt.Errorf("%w: unknown kind %d", ErrBadFrame, kind)
	}
}

// EncodeShutdown frames the coordinator's goodbye.
func EncodeShutdown(w io.Writer) error {
	return writeFrame(w, kindShutdown, nil)
}

// EncodePing frames a liveness probe carrying the prober's interval
// (nanoseconds, u64 little-endian).
func EncodePing(w io.Writer, interval time.Duration) error {
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], uint64(interval))
	return writeFrame(w, kindPing, payload[:])
}

// EncodePong frames the answer to a ping.
func EncodePong(w io.Writer) error {
	return writeFrame(w, kindPong, nil)
}

// ReadHello decodes a connection's opening frame. It reads exactly
// the frame's bytes — no buffering ahead, so the caller can hand the
// same stream to an ordinary reader afterwards without losing
// pipelined frames — and rejects any kind but hello or any payload
// over maxHelloFrame before allocating for it.
func ReadHello(r io.Reader) (Hello, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Hello{}, fmt.Errorf("%w: short hello header: %v", ErrBadFrame, err)
	}
	if hdr[0] != kindHello {
		return Hello{}, fmt.Errorf("%w: first frame kind %d, want hello", ErrBadFrame, hdr[0])
	}
	n := binary.LittleEndian.Uint32(hdr[1:5])
	if n > maxHelloFrame {
		return Hello{}, fmt.Errorf("%w: %d-byte hello refused", ErrBadFrame, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Hello{}, fmt.Errorf("%w: truncated hello: %v", ErrBadFrame, err)
	}
	var h Hello
	if err := json.Unmarshal(payload, &h); err != nil {
		return Hello{}, fmt.Errorf("%w: hello: %v", ErrBadFrame, err)
	}
	return h, nil
}
