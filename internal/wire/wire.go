// Package wire holds the conventions the repository's four binary
// formats share — the TRSH trace codec, the TRCK stream checkpoint,
// the TRGJ grid journal and the fleet's v3 frames — so each rule is
// written once:
//
//   - fixed-width fields are little-endian, and integers that are
//     mostly small travel as zigzag varints (binary.AppendVarint);
//   - a file opens with magic | version(u32);
//   - integrity is a CRC-32 (IEEE) of the sealed bytes, appended after
//     them;
//   - every count is checked against its limit and against the bytes
//     actually left before anything is allocated for it;
//   - a payload must be consumed exactly: trailing bytes are an error.
//
// Each format keeps its own layout, limits and error sentinel; the
// cursor wraps that sentinel around every error it reports.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Cursor is a bounds-checked read cursor over one in-memory payload.
// Every read checks the remaining length first and latches the first
// error, so decode loops stay linear instead of nesting error checks;
// once an error is latched every read returns a zero value.
type Cursor struct {
	b   []byte
	off int
	err error
	bad error
}

// NewCursor returns a cursor over b whose errors wrap bad.
func NewCursor(b []byte, bad error) *Cursor { return &Cursor{b: b, bad: bad} }

// Fail latches a format error wrapping the cursor's sentinel; the
// first error wins.
func (c *Cursor) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", c.bad, fmt.Sprintf(format, args...))
	}
}

// Err returns the latched error, or nil.
func (c *Cursor) Err() error { return c.err }

// Offset reports how many bytes have been consumed.
func (c *Cursor) Offset() int { return c.off }

// Take consumes the next n bytes and returns them as a sub-slice of
// the payload (not a copy), or nil once the payload is short or an
// error is latched.
func (c *Cursor) Take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || len(c.b)-c.off < n {
		c.Fail("truncated at offset %d (want %d bytes, have %d)", c.off, n, len(c.b)-c.off)
		return nil
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out
}

// U8 reads one byte.
func (c *Cursor) U8() uint8 {
	if b := c.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (c *Cursor) U16() uint16 {
	if b := c.Take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (c *Cursor) U32() uint32 {
	if b := c.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (c *Cursor) U64() uint64 {
	if b := c.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I64 reads a little-endian two's-complement int64.
func (c *Cursor) I64() int64 { return int64(c.U64()) }

// Varint reads a zigzag varint written by binary.AppendVarint.
func (c *Cursor) Varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.Fail("bad varint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

// Count checks n, an element count just read from the payload, before
// the caller allocates for it: n must lie in [0, limit], and the bytes
// left must hold n elements of at least width bytes each, so a forged
// count cannot buy an allocation the payload does not back. It returns
// n, or 0 with an error latched.
func (c *Cursor) Count(n int, what string, limit, width int) int {
	if c.err != nil {
		return 0
	}
	if n < 0 || n > limit {
		c.Fail("%s count %d exceeds limit %d", what, n, limit)
		return 0
	}
	if width > 0 && n > (len(c.b)-c.off)/width {
		c.Fail("%s count %d exceeds the %d bytes remaining", what, n, len(c.b)-c.off)
		return 0
	}
	return n
}

// Done reports the decode's outcome: the latched error, or an error
// when bytes remain after the last field — trailing bytes mean a
// framing bug or a tampered input.
func (c *Cursor) Done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("%w: %d trailing bytes", c.bad, len(c.b)-c.off)
	}
	return nil
}

// HeaderLen is the length of a magic | version(u32) header with a
// four-byte magic, the form every format here uses.
const HeaderLen = 4 + 4

// AppendHeader appends the header magic | version(u32) to b.
func AppendHeader(b []byte, magic string, version uint32) []byte {
	b = append(b, magic...)
	return binary.LittleEndian.AppendUint32(b, version)
}

// Header reads a header written by AppendHeader and latches an error
// unless both the magic and the version match.
func (c *Cursor) Header(magic string, version uint32) {
	if m := c.Take(len(magic)); m != nil && string(m) != magic {
		c.Fail("bad magic %q, want %q", m, magic)
		return
	}
	if v := c.U32(); c.err == nil && v != version {
		c.Fail("unsupported version %d, want %d", v, version)
	}
}

// SealLen is the length of the CRC a seal appends.
const SealLen = 4

// Seal appends the CRC-32 (IEEE) of b[from:] to b.
func Seal(b []byte, from int) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[from:]))
}

// Unseal verifies a record that ends in the CRC Seal appended and
// returns the bytes the CRC covers. A short record or a CRC mismatch —
// corruption or a torn write — is an error wrapping bad.
func Unseal(sealed []byte, bad error) ([]byte, error) {
	if len(sealed) < SealLen {
		return nil, fmt.Errorf("%w: %d bytes cannot hold a CRC", bad, len(sealed))
	}
	body := sealed[:len(sealed)-SealLen]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(sealed[len(body):]); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x) — corrupted or truncated", bad, want, got)
	}
	return body, nil
}

// ReadFrameHeader reads a kind(u8) | length(u32) frame header from r —
// exactly its five bytes, nothing ahead — and refuses a length over
// limit, wrapping bad, before the caller allocates anything for the
// payload. A transport error is returned as r reported it, so a caller
// can tell a closed connection from a malformed frame.
func ReadFrameHeader(r io.Reader, limit uint32, bad error) (kind byte, n int, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err
	}
	length := binary.LittleEndian.Uint32(hdr[1:])
	if length > limit {
		return hdr[0], 0, fmt.Errorf("%w: frame kind %d claims %d payload bytes, limit %d", bad, hdr[0], length, limit)
	}
	return hdr[0], int(length), nil
}
