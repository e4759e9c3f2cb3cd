package dist

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"trafficreshape/internal/experiments"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/trace"
)

// journalReq builds a distinct, wireable cell request; i varies the
// seed so every key is unique.
func journalReq(i int) CellRequest {
	return CellRequest{
		ID:     uint64(i + 100), // journalKey must zero this out
		Cfg:    experiments.Config{Seed: uint64(i), TrainDuration: time.Minute, TestDuration: time.Second, W: 5 * time.Second},
		Scheme: "Original",
		App:    trace.Video,
	}
}

func journalFams(i int) []ml.Confusion {
	var conf ml.Confusion
	conf[0][1] = i + 3
	conf[trace.NumApps-1][0] = 1 << 20
	return []ml.Confusion{conf, {}}
}

// TestJournalRecordAndResume: records written by one journal are
// restored by a resume open, answer Lookup exactly, and a non-resume
// open truncates them away.
func TestJournalRecordAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.journal")
	j, err := OpenGridJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if err := j.Record(journalReq(i), journalFams(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Re-recording a key is a no-op, not a duplicate record.
	if err := j.Record(journalReq(0), journalFams(0)); err != nil {
		t.Fatal(err)
	}
	if j.Appends() != n {
		t.Errorf("appends = %d, want %d (re-record must not append)", j.Appends(), n)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenGridJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Restored() != n {
		t.Fatalf("resume restored %d records, want %d", r.Restored(), n)
	}
	for i := 0; i < n; i++ {
		// Lookup must match on the canonical key even when the per-grid
		// ID differs from the recorded one.
		req := journalReq(i)
		req.ID = uint64(1000 + i)
		fams, ok := r.Lookup(req)
		if !ok {
			t.Fatalf("record %d missing after resume", i)
		}
		if !reflect.DeepEqual(fams, journalFams(i)) {
			t.Errorf("record %d: families changed in round trip:\nwant %v\ngot  %v", i, journalFams(i), fams)
		}
	}
	if _, ok := r.Lookup(journalReq(n)); ok {
		t.Error("Lookup answered a request that was never recorded")
	}
	if r.Hits() != n {
		t.Errorf("hits = %d, want %d", r.Hits(), n)
	}
	r.Close()

	// A fresh (non-resume) open starts empty.
	f, err := OpenGridJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Restored() != 0 {
		t.Errorf("non-resume open restored %d records, want 0", f.Restored())
	}
	if _, ok := f.Lookup(journalReq(0)); ok {
		t.Error("non-resume open kept old records")
	}
}

// TestJournalTornTail: a crash mid-append leaves a partial record; the
// resume open must keep every intact record, truncate the debris, and
// append cleanly after it.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.journal")
	j, err := OpenGridJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Record(journalReq(i), journalFams(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: a fourth record that only half landed.
	key, err := journalKey(journalReq(3))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := appendJournalRecord(nil, key, journalFams(3))
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), intact...), rec[:len(rec)/2]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenGridJournal(path, true)
	if err != nil {
		t.Fatalf("torn tail must resume, got %v", err)
	}
	if r.Restored() != 3 {
		t.Errorf("restored %d records through the tear, want 3", r.Restored())
	}
	// The tear is gone: appending after resume must produce a journal a
	// third open reads in full.
	if err := r.Record(journalReq(3), journalFams(3)); err != nil {
		t.Fatal(err)
	}
	r.Close()
	again, err := OpenGridJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Restored() != 4 {
		t.Errorf("post-tear append: restored %d records, want 4", again.Restored())
	}
	if fams, ok := again.Lookup(journalReq(3)); !ok || !reflect.DeepEqual(fams, journalFams(3)) {
		t.Error("record appended over the tear did not survive")
	}
}

// TestJournalCorruptRecordEndsTail: bit rot inside a record's payload
// fails its CRC; everything before it survives, everything after it is
// unreachable (append-only files have no record index to skip with).
func TestJournalCorruptRecordEndsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.journal")
	j, err := OpenGridJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	for i := 0; i < 3; i++ {
		if err := j.Record(journalReq(i), journalFams(i)); err != nil {
			t.Fatal(err)
		}
		pos, _ := j.f.Seek(0, io.SeekCurrent)
		offsets = append(offsets, pos)
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's payload.
	data[offsets[0]+6] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenGridJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Restored() != 1 {
		t.Errorf("restored %d records, want 1 (the one before the damage)", r.Restored())
	}
}

// TestJournalBadHeaderRefused: a file that is not a journal — or was
// written for a different grid shape — must refuse with ErrBadJournal
// rather than silently resume empty.
func TestJournalBadHeaderRefused(t *testing.T) {
	good := journalHeader()
	cases := map[string][]byte{
		"short file":  good[:journalHeaderLen-2],
		"bad magic":   append([]byte("NOPE"), good[4:]...),
		"bad version": append(append([]byte(journalMagic), 0xFF, 0, 0, 0), byte(trace.NumApps)),
		"bad dim":     append(bytes.Clone(good[:journalHeaderLen-1]), byte(trace.NumApps+1)),
	}
	for name, img := range cases {
		path := filepath.Join(t.TempDir(), "grid.journal")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenGridJournal(path, true)
		if err == nil {
			j.Close()
			t.Errorf("%s: open succeeded, want ErrBadJournal", name)
			continue
		}
		if !errors.Is(err, ErrBadJournal) {
			t.Errorf("%s: error %v, want ErrBadJournal", name, err)
		}
	}
}

// TestJournalGoldenBytes pins the TRGJ encoding byte for byte: a
// journal file after fixed Record calls must hash to the value the
// encoder produced before the codecs moved onto the shared wire kit.
func TestJournalGoldenBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.journal")
	j, err := OpenGridJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Record(journalReq(i), journalFams(i)); err != nil {
			t.Fatal(err)
		}
	}
	ref := experiments.TraceSetRef{Train: []string{digest64("0f"), ""}, Test: []string{digest64("e1")}}
	captured := CellRequest{Cfg: experiments.Config{Seed: 77, W: time.Second}, Scheme: "OR+morph", App: trace.BitTorrent, Traces: &ref}
	if err := j.Record(captured, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "d9920bb11dc21e2507010e5abdd4735425d1c3ae0363b7d9c1c2ec7a64336168"
	if got := fmt.Sprintf("%x", sha256.Sum256(img)); got != want {
		t.Errorf("TRGJ bytes changed: sha256 %s, want %s (%d bytes)", got, want, len(img))
	}
}
