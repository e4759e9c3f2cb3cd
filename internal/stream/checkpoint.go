package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"time"

	"trafficreshape/internal/mac"
	"trafficreshape/internal/reshape"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
	"trafficreshape/internal/vmac"
)

// Checkpoint format: magic "TRCK" | version(u32), a configuration
// compatibility block, the engine's cumulative counters, the per-flow
// defense state sorted by flow address, and a CRC-32 (IEEE) footer
// over everything before it. Little-endian throughout, in the style
// of the trace binary codec — ring packets reuse the same fuzz-
// hardened 40-byte record layout (trace.PutPacketRecord).
//
// The snapshot captures everything a per-flow decision depends on:
// the flow RNG's 256-bit state, the adaptive scheduler's edges and
// pending quantile window, the open eavesdropping window (ring
// contents plus the aligned interface assignments), the escalation
// level and leak streak, and every counter the report renders.
// Restoring it into a fresh engine and replaying the remaining
// packets therefore produces a report byte-identical to the
// uninterrupted run, at any shard count — per-flow state is placement
// independent.
const (
	ckptMagic   = "TRCK"
	ckptVersion = 1
)

// ErrBadCheckpoint is wrapped by every decode error, including CRC
// mismatches from a corrupted or truncated file.
var ErrBadCheckpoint = errors.New("stream: bad checkpoint")

// flowSnap is one flow's serializable state. Ring packets and
// interface assignments are aligned oldest-first.
type flowSnap struct {
	addr     mac.Address
	rng      [4]uint64
	digest   uint64
	winStart time.Duration
	started  bool
	winDown  int64

	packets     int64
	evicted     int64
	windows     int64
	classified  int64
	leakedWins  int64
	escalations int64
	vmacErrors  int64
	leakStreak  int64
	ifaces      int
	granted     int
	predHist    [trace.NumApps]int64

	sched    reshape.AdaptiveState
	ring     []trace.Packet
	ifassign []uint8
}

// snapFlow serializes f. The interface-assignment buffer is rotated
// into ring order: assignments start at slot 0 while the ring is
// filling and at the next write position (the oldest surviving slot)
// once it has wrapped — the same origin closeWindow uses.
func snapFlow(f *flowState) flowSnap {
	n := f.ring.Len()
	s := flowSnap{
		addr:        f.addr,
		rng:         f.rng.State(),
		digest:      f.digest,
		winStart:    f.winStart,
		started:     f.started,
		winDown:     int64(f.winDown),
		packets:     f.packets,
		evicted:     f.evicted,
		windows:     f.windows,
		classified:  f.classified,
		leakedWins:  f.leakedWins,
		escalations: f.escalations,
		vmacErrors:  f.vmacErrors,
		leakStreak:  int64(f.leakStreak),
		ifaces:      f.ifaces,
		granted:     f.granted,
		predHist:    f.predHist,
		sched:       f.sched.State(),
		ring:        f.ring.AppendTo(make([]trace.Packet, 0, n)),
		ifassign:    make([]uint8, n),
	}
	start := 0
	if n == f.ring.Cap() {
		start = f.slot
	}
	for i := 0; i < n; i++ {
		s.ifassign[i] = f.ifbuf[(start+i)%len(f.ifbuf)]
	}
	return s
}

// restoreFlow rebuilds a flow from its snapshot. Structural errors
// (the snapshot does not fit this engine's configuration) return a
// nil flow; grant re-establishment errors return the flow alongside
// the error so a best-effort caller (panic recovery) can keep it.
//
// The vMAC grant is released and re-requested rather than trusted:
// on a fresh AP (daemon restart) the release is a no-op and the grant
// allocates anew; on a live AP (in-process shard restart) it clears
// whatever the previous incarnation held. Either way the flow ends up
// holding exactly granted interfaces, and the request nonce comes
// from the flow digest — never the flow RNG, whose draw sequence must
// stay aligned with the uninterrupted run.
func (sh *shard) restoreFlow(s *flowSnap) (*flowState, error) {
	e := sh.e
	if len(s.ring) != len(s.ifassign) || len(s.ring) > e.cfg.RingCap {
		return nil, fmt.Errorf("stream: restore: flow %s ring %d/%d entries (cap %d)",
			s.addr, len(s.ring), len(s.ifassign), e.cfg.RingCap)
	}
	sched, err := reshape.RestoreAdaptive(s.sched)
	if err != nil {
		return nil, fmt.Errorf("stream: restore: flow %s: %w", s.addr, err)
	}
	if sched.Interfaces() != s.ifaces {
		return nil, fmt.Errorf("stream: restore: flow %s scheduler has %d interfaces, flow has %d",
			s.addr, sched.Interfaces(), s.ifaces)
	}
	f := &flowState{
		addr:        s.addr,
		ring:        trace.NewRing(e.cfg.RingCap),
		ifbuf:       append([]uint8(nil), s.ifassign...),
		sched:       sched,
		ifaces:      s.ifaces,
		client:      vmac.NewClient(s.addr),
		rng:         stats.NewRNG(0),
		digest:      s.digest,
		winStart:    s.winStart,
		started:     s.started,
		winDown:     int(s.winDown),
		packets:     s.packets,
		evicted:     s.evicted,
		windows:     s.windows,
		classified:  s.classified,
		leakedWins:  s.leakedWins,
		escalations: s.escalations,
		vmacErrors:  s.vmacErrors,
		leakStreak:  int(s.leakStreak),
		granted:     s.granted,
		predHist:    s.predHist,
	}
	f.rng.RestoreState(s.rng)
	for _, p := range s.ring {
		f.ring.Push(p)
	}
	f.slot = len(s.ring) % e.cfg.RingCap
	if s.granted > 0 {
		if err := e.ap.Release(s.addr); err != nil && !errors.Is(err, vmac.ErrUnknownClient) {
			return f, fmt.Errorf("stream: restore: flow %s release: %w", s.addr, err)
		}
		resp, err := e.ap.HandleRequest(f.client.NewRequest(s.granted, s.digest))
		if err != nil {
			return f, fmt.Errorf("stream: restore: flow %s regrant: %w", s.addr, err)
		}
		if err := f.client.Install(resp); err != nil {
			return f, fmt.Errorf("stream: restore: flow %s install: %w", s.addr, err)
		}
		if len(resp.Virtual) != s.granted {
			return f, fmt.Errorf("stream: restore: flow %s regrant yielded %d interfaces, want %d",
				s.addr, len(resp.Virtual), s.granted)
		}
	}
	return f, nil
}

// ckptData is the decoded checkpoint: configuration echo, cumulative
// counters, flows sorted by address.
type ckptData struct {
	w             time.Duration
	ringCap       int
	interfaces    int
	period        int
	escalateAfter int
	seed          uint64

	offered  int64
	shed     int64
	stalled  int64
	lost     int64
	restarts int64
	reaps    int64
	degraded bool

	flows []flowSnap
}

// Checkpoint snapshots every flow's defense state and the engine's
// cumulative counters to w. In sharded mode it runs a barrier: all
// buffered packets are flushed, then each shard serializes its flows
// at its queue's current frontier — the checkpoint boundary is
// exactly the set of packets Ingested before the call. The snapshot
// also becomes each shard's rollback point for panic recovery and
// watchdog reaps. The producer goroutine must call it; it cannot run
// concurrently with Ingest.
func (e *Engine) Checkpoint(w io.Writer) error {
	if e.final != nil {
		return errors.New("stream: checkpoint after drain")
	}
	d := &ckptData{
		w:             e.cfg.W,
		ringCap:       e.cfg.RingCap,
		interfaces:    e.cfg.Interfaces,
		period:        e.cfg.Period,
		escalateAfter: e.cfg.EscalateAfter,
		seed:          e.cfg.Seed,
		offered:       e.offered,
		degraded:      e.auditOff.Load(),
	}
	if e.inline != nil {
		rep := e.inline.snapshot()
		d.flows = rep.flows
		d.lost = e.inline.lost.Load() + e.inheritedLost
		d.restarts = e.inline.restarts.Load() + e.inheritedRestarts
		d.reaps = e.inheritedReaps
	} else {
		e.Flush()
		chs := make([]chan snapReply, e.nshards)
		for i := range e.shards {
			ch := make(chan snapReply, 1)
			e.shards[i].Load().in <- shardMsg{snap: ch}
			chs[i] = ch
		}
		for i, ch := range chs {
			rep := <-ch
			if rep.err != nil {
				return rep.err
			}
			e.mu.Lock()
			e.lastSnap[i] = rep.flows
			e.mu.Unlock()
			d.flows = append(d.flows, rep.flows...)
		}
		for i := range e.shedBy {
			d.shed += e.shedBy[i]
			d.stalled += e.stallBy[i]
		}
		for i := range e.shards {
			sh := e.shards[i].Load()
			d.lost += sh.lost.Load()
			d.restarts += sh.restarts.Load()
		}
		e.mu.Lock()
		for _, z := range e.zombies {
			d.lost += z.lost.Load() + z.sent.Load() - z.accounted.Load()
			d.restarts += z.restarts.Load()
		}
		d.reaps = e.reaps
		e.mu.Unlock()
		d.shed += e.inheritedShed
		d.stalled += e.inheritedStalled
		d.lost += e.inheritedLost
		d.restarts += e.inheritedRestarts
		d.reaps += e.inheritedReaps
	}
	sort.Slice(d.flows, func(i, j int) bool {
		return bytes.Compare(d.flows[i].addr[:], d.flows[j].addr[:]) < 0
	})
	return encodeCheckpoint(w, d)
}

// Restore loads a checkpoint into a freshly built engine: it
// validates the configuration echo against e's own, inherits the
// counters, and installs each flow into the shard that owns it (any
// shard count — flow state is placement independent). The engine must
// not have ingested anything yet. The caller then replays the stream
// from checkpoint offset Offered().
func (e *Engine) Restore(r io.Reader) error {
	if e.offered != 0 || e.final != nil {
		return errors.New("stream: restore into a used engine")
	}
	d, err := decodeCheckpoint(r)
	if err != nil {
		return err
	}
	if d.w != e.cfg.W || d.ringCap != e.cfg.RingCap || d.interfaces != e.cfg.Interfaces ||
		d.period != e.cfg.Period || d.escalateAfter != e.cfg.EscalateAfter || d.seed != e.cfg.Seed {
		return fmt.Errorf("stream: checkpoint taken under different configuration "+
			"(ckpt w=%s ring=%d ifaces=%d period=%d escalate=%d seed=%#x; engine w=%s ring=%d ifaces=%d period=%d escalate=%d seed=%#x)",
			d.w, d.ringCap, d.interfaces, d.period, d.escalateAfter, d.seed,
			e.cfg.W, e.cfg.RingCap, e.cfg.Interfaces, e.cfg.Period, e.cfg.EscalateAfter, e.cfg.Seed)
	}
	e.offered = d.offered
	e.inheritedShed = d.shed
	e.inheritedStalled = d.stalled
	e.inheritedLost = d.lost
	e.inheritedRestarts = d.restarts
	e.inheritedReaps = d.reaps
	if d.degraded {
		e.auditOff.Store(true)
	}
	if e.inline != nil {
		return e.inline.install(d.flows)
	}
	groups := make([][]flowSnap, e.nshards)
	for _, s := range d.flows {
		i := e.shardIndex(s.addr)
		groups[i] = append(groups[i], s)
	}
	reqs := make([]installReq, e.nshards)
	for i := range e.shards {
		reqs[i] = installReq{flows: groups[i], done: make(chan error, 1)}
		e.shards[i].Load().in <- shardMsg{install: &reqs[i]}
	}
	var firstErr error
	for i := range reqs {
		if err := <-reqs[i].done; err != nil && firstErr == nil {
			firstErr = err
		}
		e.mu.Lock()
		e.lastSnap[i] = groups[i]
		e.mu.Unlock()
	}
	return firstErr
}

// --- binary encoding --------------------------------------------------------

type ckptEncoder struct {
	buf bytes.Buffer
	tmp [trace.PacketRecordLen]byte
}

func (e *ckptEncoder) u8(v uint8) { e.buf.WriteByte(v) }
func (e *ckptEncoder) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.tmp[:4], v)
	e.buf.Write(e.tmp[:4])
}
func (e *ckptEncoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.tmp[:8], v)
	e.buf.Write(e.tmp[:8])
}
func (e *ckptEncoder) i64(v int64) { e.u64(uint64(v)) }

func encodeCheckpoint(w io.Writer, d *ckptData) error {
	var enc ckptEncoder
	enc.buf.WriteString(ckptMagic)
	enc.u32(ckptVersion)
	enc.i64(int64(d.w))
	enc.u32(uint32(d.ringCap))
	enc.u32(uint32(d.interfaces))
	enc.u32(uint32(d.period))
	enc.u32(uint32(d.escalateAfter))
	enc.u64(d.seed)
	enc.i64(d.offered)
	enc.i64(d.shed)
	enc.i64(d.stalled)
	enc.i64(d.lost)
	enc.i64(d.restarts)
	enc.i64(d.reaps)
	if d.degraded {
		enc.u8(1)
	} else {
		enc.u8(0)
	}
	enc.u32(uint32(len(d.flows)))
	for i := range d.flows {
		f := &d.flows[i]
		enc.buf.Write(f.addr[:])
		enc.u8(0)
		enc.u8(0)
		for _, s := range f.rng {
			enc.u64(s)
		}
		enc.u64(f.digest)
		enc.i64(int64(f.winStart))
		if f.started {
			enc.u8(1)
		} else {
			enc.u8(0)
		}
		enc.i64(f.winDown)
		enc.i64(f.packets)
		enc.i64(f.evicted)
		enc.i64(f.windows)
		enc.i64(f.classified)
		enc.i64(f.leakedWins)
		enc.i64(f.escalations)
		enc.i64(f.vmacErrors)
		enc.i64(f.leakStreak)
		enc.u32(uint32(f.ifaces))
		enc.u32(uint32(f.granted))
		enc.u32(uint32(len(f.predHist)))
		for _, v := range f.predHist {
			enc.i64(v)
		}
		enc.u32(uint32(f.sched.Interfaces))
		enc.u32(uint32(f.sched.Period))
		enc.i64(int64(f.sched.Seen))
		enc.i64(int64(f.sched.Epochs))
		enc.u32(uint32(len(f.sched.Edges)))
		for _, v := range f.sched.Edges {
			enc.u32(uint32(v))
		}
		enc.u32(uint32(len(f.sched.Window)))
		for _, v := range f.sched.Window {
			enc.u32(uint32(v))
		}
		enc.u32(uint32(len(f.ring)))
		for _, p := range f.ring {
			trace.PutPacketRecord(enc.tmp[:], p)
			enc.buf.Write(enc.tmp[:])
		}
		enc.buf.Write(f.ifassign)
	}
	enc.u32(crc32.ChecksumIEEE(enc.buf.Bytes()))
	_, err := w.Write(enc.buf.Bytes())
	return err
}

type ckptReader struct {
	b   []byte
	off int
	err error
}

func (r *ckptReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBadCheckpoint, fmt.Sprintf(format, args...))
	}
}

func (r *ckptReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b)-r.off < n {
		r.fail("truncated at offset %d (need %d bytes)", r.off, n)
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *ckptReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *ckptReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *ckptReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *ckptReader) i64() int64 { return int64(r.u64()) }

// count reads a u32 element count and bounds it: the claimed count
// must be plausible against the bytes actually remaining (at least
// one byte per element), so a forged header cannot trigger a huge
// allocation before the data runs out.
func (r *ckptReader) count(what string, max int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n > max {
		r.fail("%s count %d exceeds limit %d", what, n, max)
		return 0
	}
	if n > len(r.b)-r.off {
		r.fail("%s count %d exceeds remaining input", what, n)
		return 0
	}
	return n
}

func (r *ckptReader) nonNeg(what string, v int64) int64 {
	if v < 0 {
		r.fail("negative %s %d", what, v)
	}
	return v
}

func decodeCheckpoint(src io.Reader) (*ckptData, error) {
	raw, err := io.ReadAll(src)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if len(raw) < len(ckptMagic)+4+4 {
		return nil, fmt.Errorf("%w: short file (%d bytes)", ErrBadCheckpoint, len(raw))
	}
	if string(raw[:4]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	body, foot := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(foot); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (file %08x, computed %08x) — corrupted or truncated", ErrBadCheckpoint, want, got)
	}
	r := &ckptReader{b: body, off: 4}
	if v := r.u32(); v != ckptVersion && r.err == nil {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadCheckpoint, v)
	}
	d := &ckptData{}
	d.w = time.Duration(r.nonNeg("window", r.i64()))
	d.ringCap = int(r.u32())
	d.interfaces = int(r.u32())
	d.period = int(r.u32())
	d.escalateAfter = int(r.u32())
	if d.ringCap <= 0 || d.ringCap > 1<<24 {
		r.fail("implausible ring capacity %d", d.ringCap)
	}
	if d.interfaces < 1 || d.interfaces > vmac.MaxInterfaces {
		r.fail("interfaces %d out of [1, %d]", d.interfaces, vmac.MaxInterfaces)
	}
	if d.period <= 0 || d.period > 1<<24 {
		r.fail("implausible period %d", d.period)
	}
	d.seed = r.u64()
	d.offered = r.nonNeg("offered", r.i64())
	d.shed = r.nonNeg("shed", r.i64())
	d.stalled = r.nonNeg("stalled", r.i64())
	d.lost = r.nonNeg("lost", r.i64())
	d.restarts = r.nonNeg("restarts", r.i64())
	d.reaps = r.nonNeg("reaps", r.i64())
	d.degraded = r.u8() != 0
	nFlows := r.count("flow", 1<<20)
	if r.err != nil {
		return nil, r.err
	}
	// Bounded prealloc: the claimed count is validated against the
	// bytes remaining, but each flow record is hundreds of bytes, so a
	// forged count near the byte bound would still over-allocate by
	// orders of magnitude. Beyond the hint the slice grows with the
	// records actually present.
	hint := nFlows
	if hint > 1<<12 {
		hint = 1 << 12
	}
	d.flows = make([]flowSnap, 0, hint)
	var prev mac.Address
	for i := 0; i < nFlows; i++ {
		var f flowSnap
		copy(f.addr[:], r.take(6))
		r.take(2) // pad
		if i > 0 && bytes.Compare(prev[:], f.addr[:]) >= 0 && r.err == nil {
			r.fail("flow %d address %s out of order", i, f.addr)
		}
		prev = f.addr
		for j := range f.rng {
			f.rng[j] = r.u64()
		}
		if f.rng[0]|f.rng[1]|f.rng[2]|f.rng[3] == 0 && r.err == nil {
			r.fail("flow %s has all-zero RNG state", f.addr)
		}
		f.digest = r.u64()
		f.winStart = time.Duration(r.i64())
		f.started = r.u8() != 0
		f.winDown = r.nonNeg("winDown", r.i64())
		f.packets = r.nonNeg("packets", r.i64())
		f.evicted = r.nonNeg("evicted", r.i64())
		f.windows = r.nonNeg("windows", r.i64())
		f.classified = r.nonNeg("classified", r.i64())
		f.leakedWins = r.nonNeg("leaked", r.i64())
		f.escalations = r.nonNeg("escalations", r.i64())
		f.vmacErrors = r.nonNeg("vmacErrors", r.i64())
		f.leakStreak = r.nonNeg("leakStreak", r.i64())
		f.ifaces = int(r.u32())
		f.granted = int(r.u32())
		if r.err == nil && (f.ifaces < 1 || f.ifaces > vmac.MaxInterfaces) {
			r.fail("flow %s interfaces %d out of [1, %d]", f.addr, f.ifaces, vmac.MaxInterfaces)
		}
		if r.err == nil && (f.granted < 0 || f.granted > vmac.MaxInterfaces) {
			r.fail("flow %s granted %d out of [0, %d]", f.addr, f.granted, vmac.MaxInterfaces)
		}
		if nPred := int(r.u32()); nPred != len(f.predHist) && r.err == nil {
			r.fail("flow %s has %d app buckets, want %d", f.addr, nPred, len(f.predHist))
		}
		if r.err != nil {
			return nil, r.err
		}
		for j := range f.predHist {
			f.predHist[j] = r.nonNeg("pred", r.i64())
		}
		f.sched.Interfaces = int(r.u32())
		f.sched.Period = int(r.u32())
		f.sched.Seen = int(r.nonNeg("sched seen", r.i64()))
		f.sched.Epochs = int(r.nonNeg("sched epochs", r.i64()))
		nEdges := r.count("edge", reshape.LMax)
		f.sched.Edges = make([]int, nEdges)
		for j := range f.sched.Edges {
			f.sched.Edges[j] = int(r.u32())
		}
		nWin := r.count("window sample", 1<<24)
		f.sched.Window = make([]int, nWin)
		for j := range f.sched.Window {
			f.sched.Window[j] = int(r.u32())
		}
		nRing := r.count("ring packet", d.ringCap)
		if rec := r.take(nRing * trace.PacketRecordLen); rec != nil {
			f.ring = make([]trace.Packet, nRing)
			for j := 0; j < nRing; j++ {
				f.ring[j] = trace.PacketFromRecord(rec[j*trace.PacketRecordLen:])
			}
		}
		if asg := r.take(nRing); asg != nil {
			f.ifassign = append([]uint8(nil), asg...)
			for j, v := range f.ifassign {
				if int(v) >= f.ifaces && r.err == nil {
					r.fail("flow %s slot %d assigned to interface %d of %d", f.addr, j, v, f.ifaces)
				}
			}
		}
		if r.err != nil {
			return nil, r.err
		}
		d.flows = append(d.flows, f)
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, len(r.b)-r.off)
	}
	return d, nil
}
