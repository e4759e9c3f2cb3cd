package dist

// Protocol v3 payload codec: batched binary cell dispatch in the
// style of the trace codec — little-endian, versioned, every length
// bounds-checked before it allocates. Framing one cell per frame
// leaves a fleet coordinator spending more time framing and
// syscalling than scheduling, so v3 packs many cells into one
// cell-batch frame (sized to the receiving worker's slots) and many
// answers into one result-batch frame, and ships captured trace
// preloads flate-compressed. The outer kind|length framing is the one
// protocol.go describes.
//
// Payload layouts (all little-endian):
//
//	cell-batch:   ver(u8)=1 | dim(u8)=NumApps | count(u16) | count × request
//	request:      id(u64) | seed(u64) | train(i64) | test(i64) | w(i64)
//	              | schemeLen(u16) | scheme | app(u8) | hasRef(u8)
//	              | [ref when hasRef=1]
//	ref:          trainCount(u8) | trainCount × slot
//	              | testCount(u8) | testCount × slot
//	slot:         present(u8) | [32 raw digest bytes when present=1]
//	result-batch: ver(u8)=1 | dim(u8)=NumApps | count(u16) | count × result
//	result:       id(u64) | errLen(u16) | err | cached(u8)
//	              | famCount(u8) | famCount × dim² varint cells
//	trace-z:      app(u8) | flate(binary trace codec)
//
// Digests travel as raw SHA-256 bytes (half the hex wire size); the
// decoder re-hexes them in lowercase, and the encoder accepts only
// that canonical form, so every accepted ref round-trips exactly. Confusion cells use zigzag varints — the matrices
// are mostly near-zero counts, so a 7×7 matrix typically encodes in
// ~60 bytes instead of 392.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"trafficreshape/internal/experiments"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/trace"
)

const (
	// batchVersion stamps the inner payload layout of cell-batch and
	// result-batch frames, independent of the session protocol number.
	batchVersion = 1
	// maxBatchCells bounds one batch frame. The coordinator never
	// sends more cells than a worker has slots (≤ 64); the decoder
	// allows headroom but refuses a corrupt count before allocating.
	maxBatchCells = 4096
	// maxSchemeName bounds a scheme wire name. The longest registered
	// name today is ~50 bytes.
	maxSchemeName = 256
	// maxRefSlots bounds the per-role slot count of a trace ref
	// (trace.NumApps today, headroom for profile growth).
	maxRefSlots = 64
	// maxFamilies bounds the classifier families in one result (4
	// today).
	maxFamilies = 16
	// digestRawLen is a raw SHA-256 digest.
	digestRawLen = 32
	// maxTraceZBytes bounds a trace-z frame's decompressed stream: at
	// ~40 bytes per packet record this is ~1.6M packets, an order of
	// magnitude beyond any captured trace the experiments ship. The
	// tight bound is what keeps a decompression bomb's cost bounded —
	// a tiny hostile frame can otherwise buy a gigabyte of inflate
	// work before the trace decoder's own checks see a single byte.
	maxTraceZBytes = 64 << 20
)

// bcur is a bounds-checked read cursor over one payload. Every read
// validates the remaining length first and latches the first error, so
// decode loops stay linear instead of nesting error checks.
type bcur struct {
	b   []byte
	off int
	err error
}

func (c *bcur) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: "+format, append([]any{ErrBadFrame}, args...)...)
	}
}

func (c *bcur) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || len(c.b)-c.off < n {
		c.fail("truncated payload at offset %d (want %d bytes, have %d)", c.off, n, len(c.b)-c.off)
		return nil
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out
}

func (c *bcur) u8() byte {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *bcur) u16() uint16 {
	b := c.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (c *bcur) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (c *bcur) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.fail("bad varint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

// done reports decode success and requires the payload be fully
// consumed — trailing garbage means a framing bug or a tampered peer.
func (c *bcur) done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("%w: %d trailing bytes after payload", ErrBadFrame, len(c.b)-c.off)
	}
	return nil
}

// --- cell batches ------------------------------------------------------------

func appendRefSlots(buf []byte, slots []string) ([]byte, error) {
	if len(slots) > maxRefSlots {
		return nil, fmt.Errorf("%w: %d ref slots exceed limit", ErrBadFrame, len(slots))
	}
	buf = append(buf, byte(len(slots)))
	for _, d := range slots {
		if d == "" {
			buf = append(buf, 0)
			continue
		}
		// Uppercase hex would decode as its lowercase form, so only the
		// canonical lowercase spelling round-trips exactly.
		raw, err := hex.DecodeString(d)
		if err != nil || len(raw) != digestRawLen || d != strings.ToLower(d) {
			return nil, fmt.Errorf("%w: ref digest %q is not a lowercase hex SHA-256", ErrBadFrame, d)
		}
		buf = append(buf, 1)
		buf = append(buf, raw...)
	}
	return buf, nil
}

func (c *bcur) refSlots() []string {
	n := int(c.u8())
	if n > maxRefSlots {
		c.fail("%d ref slots exceed limit", n)
		return nil
	}
	if c.err != nil || n == 0 {
		return nil
	}
	slots := make([]string, n)
	for i := range slots {
		if c.u8() == 1 {
			if raw := c.take(digestRawLen); raw != nil {
				slots[i] = hex.EncodeToString(raw)
			}
		}
	}
	return slots
}

func appendCellRequest(buf []byte, req CellRequest) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint64(buf, req.ID)
	buf = binary.LittleEndian.AppendUint64(buf, req.Cfg.Seed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(req.Cfg.TrainDuration))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(req.Cfg.TestDuration))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(req.Cfg.W))
	if len(req.Scheme) > maxSchemeName {
		return nil, fmt.Errorf("%w: %d-byte scheme name exceeds limit", ErrBadFrame, len(req.Scheme))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(req.Scheme)))
	buf = append(buf, req.Scheme...)
	buf = append(buf, byte(req.App))
	if req.Traces == nil {
		return append(buf, 0), nil
	}
	buf = append(buf, 1)
	var err error
	if buf, err = appendRefSlots(buf, req.Traces.Train); err != nil {
		return nil, err
	}
	return appendRefSlots(buf, req.Traces.Test)
}

func (c *bcur) cellRequest() CellRequest {
	var req CellRequest
	req.ID = c.u64()
	req.Cfg.Seed = c.u64()
	req.Cfg.TrainDuration = time.Duration(c.u64())
	req.Cfg.TestDuration = time.Duration(c.u64())
	req.Cfg.W = time.Duration(c.u64())
	n := int(c.u16())
	if n > maxSchemeName {
		c.fail("%d-byte scheme name exceeds limit", n)
		return req
	}
	req.Scheme = string(c.take(n))
	req.App = trace.App(c.u8())
	if c.u8() == 1 {
		ref := experiments.TraceSetRef{Train: c.refSlots(), Test: c.refSlots()}
		req.Traces = &ref
	}
	return req
}

// EncodeCellBatch frames a batch of cell requests as one binary v3
// frame, amortizing framing and syscalls over the whole batch.
func EncodeCellBatch(w io.Writer, reqs []CellRequest) error {
	if len(reqs) == 0 || len(reqs) > maxBatchCells {
		return fmt.Errorf("%w: cell batch of %d", ErrBadFrame, len(reqs))
	}
	buf := make([]byte, 0, 64*len(reqs))
	buf = append(buf, batchVersion, byte(trace.NumApps))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(reqs)))
	var err error
	for _, req := range reqs {
		if buf, err = appendCellRequest(buf, req); err != nil {
			return err
		}
	}
	return writeFrame(w, kindCellBatch, buf)
}

// batchHeader validates the shared ver|dim|count prefix.
func (c *bcur) batchHeader() int {
	if v := c.u8(); c.err == nil && v != batchVersion {
		c.fail("batch payload version %d, want %d", v, batchVersion)
	}
	if d := c.u8(); c.err == nil && int(d) != trace.NumApps {
		c.fail("confusion dimension %d, want %d", d, trace.NumApps)
	}
	n := int(c.u16())
	if c.err == nil && (n == 0 || n > maxBatchCells) {
		c.fail("batch of %d cells", n)
	}
	if c.err != nil {
		return 0
	}
	return n
}

func decodeCellBatch(payload []byte) ([]CellRequest, error) {
	c := &bcur{b: payload}
	n := c.batchHeader()
	if c.err != nil {
		return nil, c.err
	}
	reqs := make([]CellRequest, 0, n)
	for i := 0; i < n && c.err == nil; i++ {
		reqs = append(reqs, c.cellRequest())
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	return reqs, nil
}

// --- result batches ----------------------------------------------------------

func appendCellResult(buf []byte, res CellResult) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint64(buf, res.ID)
	if len(res.Err) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d-byte error string exceeds limit", ErrBadFrame, len(res.Err))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(res.Err)))
	buf = append(buf, res.Err...)
	var cached byte
	if res.Cached {
		cached = 1
	}
	buf = append(buf, cached)
	if len(res.Families) > maxFamilies {
		return nil, fmt.Errorf("%w: %d families exceed limit", ErrBadFrame, len(res.Families))
	}
	buf = append(buf, byte(len(res.Families)))
	for _, fam := range res.Families {
		for r := range fam {
			for col := range fam[r] {
				buf = binary.AppendVarint(buf, int64(fam[r][col]))
			}
		}
	}
	return buf, nil
}

func (c *bcur) cellResult() CellResult {
	var res CellResult
	res.ID = c.u64()
	res.Err = string(c.take(int(c.u16())))
	res.Cached = c.u8() == 1
	n := int(c.u8())
	if n > maxFamilies {
		c.fail("%d families exceed limit", n)
		return res
	}
	if c.err != nil || n == 0 {
		return res
	}
	res.Families = make([]ml.Confusion, n)
	for f := range res.Families {
		for r := 0; r < trace.NumApps; r++ {
			for col := 0; col < trace.NumApps; col++ {
				res.Families[f][r][col] = int(c.varint())
			}
		}
	}
	return res
}

// EncodeResultBatch frames a batch of cell results as one binary v3
// frame.
func EncodeResultBatch(w io.Writer, results []CellResult) error {
	if len(results) == 0 || len(results) > maxBatchCells {
		return fmt.Errorf("%w: result batch of %d", ErrBadFrame, len(results))
	}
	buf := make([]byte, 0, 128*len(results))
	buf = append(buf, batchVersion, byte(trace.NumApps))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(results)))
	var err error
	for _, res := range results {
		if buf, err = appendCellResult(buf, res); err != nil {
			return err
		}
	}
	return writeFrame(w, kindResultBatch, buf)
}

func decodeResultBatch(payload []byte) ([]CellResult, error) {
	c := &bcur{b: payload}
	n := c.batchHeader()
	if c.err != nil {
		return nil, c.err
	}
	results := make([]CellResult, 0, n)
	for i := 0; i < n && c.err == nil; i++ {
		results = append(results, c.cellResult())
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	return results, nil
}

// --- compressed trace preloads -----------------------------------------------

// EncodeTraceCompressed frames a trace payload with the binary trace
// codec flate-compressed — the v3 preload path. Synthetic-looking
// 40-byte packet records compress severalfold, which matters because
// a captured preload is the largest transfer a fleet makes.
func EncodeTraceCompressed(w io.Writer, p TracePayload) error {
	var buf bytes.Buffer
	buf.WriteByte(byte(p.App))
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return err
	}
	if err := trace.WriteBinary(zw, p.Trace); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return writeFrame(w, kindTraceZ, buf.Bytes())
}

// decodeTraceZ parses a kindTraceZ payload. The decompressed stream is
// hard-bounded at maxTraceZBytes before the trace decoder sees it, so
// a tiny frame cannot inflate into unbounded allocation or work (the
// trace decoder's own packet-count bound then applies on top; a
// truncated-at-the-bound stream fails its record parse).
func decodeTraceZ(payload []byte) (TracePayload, error) {
	if len(payload) < 1 {
		return TracePayload{}, fmt.Errorf("%w: empty trace-z payload", ErrBadFrame)
	}
	zr := flate.NewReader(bytes.NewReader(payload[1:]))
	defer zr.Close()
	tr, err := trace.ReadBinary(io.LimitReader(zr, maxTraceZBytes))
	if err != nil {
		return TracePayload{}, fmt.Errorf("%w: trace-z: %v", ErrBadFrame, err)
	}
	return TracePayload{App: trace.App(payload[0]), Trace: tr}, nil
}
