package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

var errBad = errors.New("test: bad input")

// TestCursorReadsAndLatches: fields decode little-endian in order, the
// first short read latches an error wrapping the caller's sentinel,
// and every later read returns zero without moving the cursor.
func TestCursorReadsAndLatches(t *testing.T) {
	b := []byte{0x7f}
	b = binary.LittleEndian.AppendUint16(b, 0xbeef)
	b = binary.LittleEndian.AppendUint32(b, 0xdeadbeef)
	b = binary.LittleEndian.AppendUint64(b, 1<<63|5)
	b = binary.AppendVarint(b, -300)
	b = append(b, "xyz"...)
	c := NewCursor(b, errBad)
	if v := c.U8(); v != 0x7f {
		t.Errorf("U8 = %#x", v)
	}
	if v := c.U16(); v != 0xbeef {
		t.Errorf("U16 = %#x", v)
	}
	if v := c.U32(); v != 0xdeadbeef {
		t.Errorf("U32 = %#x", v)
	}
	if v := c.I64(); v != -1<<63|5 {
		t.Errorf("I64 = %d", v)
	}
	if v := c.Varint(); v != -300 {
		t.Errorf("Varint = %d", v)
	}
	if s := string(c.Take(3)); s != "xyz" {
		t.Errorf("Take = %q", s)
	}
	if err := c.Done(); err != nil {
		t.Fatalf("Done on a fully consumed payload: %v", err)
	}
	if v := c.U8(); v != 0 || !errors.Is(c.Err(), errBad) {
		t.Fatalf("read past the end: %d, %v", v, c.Err())
	}
	first, off := c.Err(), c.Offset()
	if c.U64() != 0 || c.Varint() != 0 || c.Take(0) != nil || c.Offset() != off {
		t.Error("reads after a latched error must return zero and stay put")
	}
	c.Fail("second error")
	if c.Err() != first || !errors.Is(c.Done(), errBad) {
		t.Errorf("latched error changed: %v", c.Err())
	}
}

func TestCursorRejects(t *testing.T) {
	cases := map[string]func(c *Cursor){
		"negative take":  func(c *Cursor) { c.Take(-1) },
		"bad varint":     func(c *Cursor) { c.Varint() },
		"count limit":    func(c *Cursor) { c.Count(5, "thing", 4, 0) },
		"negative count": func(c *Cursor) { c.Count(-1, "thing", 4, 0) },
		// Three bytes remain: two 2-byte elements do not fit.
		"count width": func(c *Cursor) { c.Count(2, "thing", 10, 2) },
		"bad magic":   func(c *Cursor) { c.Header("ABCD", 1) },
	}
	for name, fn := range cases {
		c := NewCursor([]byte{0xff, 0xff, 0xff}, errBad)
		if fn(c); !errors.Is(c.Err(), errBad) {
			t.Errorf("%s: latched %v, want the caller's sentinel", name, c.Err())
		}
	}
	c := NewCursor([]byte{1, 2, 3}, errBad)
	if n := c.Count(3, "thing", 3, 1); n != 3 || c.Err() != nil {
		t.Errorf("count exactly filling the payload: %d, %v", n, c.Err())
	}
	c.U8()
	if err := c.Done(); !errors.Is(err, errBad) {
		t.Errorf("trailing bytes: Done = %v, want the caller's sentinel", err)
	}
}

func TestHeader(t *testing.T) {
	h := AppendHeader(nil, "TRXX", 7)
	if len(h) != HeaderLen {
		t.Fatalf("header is %d bytes, want %d", len(h), HeaderLen)
	}
	c := NewCursor(h, errBad)
	if c.Header("TRXX", 7); c.Done() != nil {
		t.Fatalf("own header rejected: %v", c.Done())
	}
	for name, in := range map[string][]byte{
		"version": AppendHeader(nil, "TRXX", 8),
		"magic":   AppendHeader(nil, "TRXY", 7),
		"short":   h[:HeaderLen-1],
	} {
		c := NewCursor(in, errBad)
		if c.Header("TRXX", 7); !errors.Is(c.Err(), errBad) {
			t.Errorf("%s: accepted (%v)", name, c.Err())
		}
	}
}

// TestSealDetectsEveryFlip: a seal covers exactly b[from:], and any
// single flipped bit in the sealed bytes or the CRC fails Unseal.
func TestSealDetectsEveryFlip(t *testing.T) {
	prefix := []byte("len:")
	sealed := Seal(append(prefix, "payload"...), len(prefix))
	rec := sealed[len(prefix):]
	body, err := Unseal(rec, errBad)
	if err != nil || string(body) != "payload" {
		t.Fatalf("Unseal = %q, %v", body, err)
	}
	for i := range rec {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(rec)
			mut[i] ^= 1 << bit
			if _, err := Unseal(mut, errBad); !errors.Is(err, errBad) {
				t.Fatalf("flip byte %d bit %d: %v", i, bit, err)
			}
		}
	}
	if _, err := Unseal(rec[:SealLen-1], errBad); !errors.Is(err, errBad) {
		t.Errorf("short record: %v", err)
	}
}

func TestReadFrameHeader(t *testing.T) {
	r := bytes.NewReader([]byte{9, 3, 0, 0, 0, 'a', 'b', 'c'})
	kind, n, err := ReadFrameHeader(r, 3, errBad)
	if err != nil || kind != 9 || n != 3 {
		t.Fatalf("got kind %d len %d err %v", kind, n, err)
	}
	if r.Len() != 3 {
		t.Errorf("read %d bytes past the header", 3-r.Len())
	}
	if _, _, err := ReadFrameHeader(bytes.NewReader([]byte{9, 4, 0, 0, 0}), 3, errBad); !errors.Is(err, errBad) {
		t.Errorf("over-limit length: %v, want the caller's sentinel", err)
	}
	// Transport errors come back unwrapped: a closed connection is not
	// a malformed frame.
	for _, in := range [][]byte{nil, {9, 1}} {
		_, _, err := ReadFrameHeader(bytes.NewReader(in), 3, errBad)
		if errors.Is(err, errBad) || !(errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
			t.Errorf("%d-byte stream: %v, want the transport error", len(in), err)
		}
	}
}
