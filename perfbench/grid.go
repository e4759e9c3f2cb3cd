package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"trafficreshape/internal/dist"
	"trafficreshape/internal/experiments"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/par"
	"trafficreshape/internal/trace"
)

// quickConfig is the quick evaluation's primary configuration (W = 5 s)
// with the workload seed in place of the default 42.
func quickConfig(seed uint64) experiments.Config {
	cfg := experiments.QuickConfig(5 * time.Second)
	cfg.Seed = seed
	return cfg
}

// gridReport is one rendered quick evaluation. It keeps the primary
// dataset, whose derived-dataset cache is the grid's live state.
type gridReport struct {
	text    []byte
	results map[string]*experiments.Result
	ds      *experiments.Dataset
}

func (g *gridReport) digest() [32]byte { return sha256.Sum256(g.text) }

// leakFrac is the grid's privacy output: the strongest attacker's mean
// accuracy against the paper's OR defense in Table II.
func (g *gridReport) leakFrac() float64 { return g.results["table2"].Metric("mean/OR") }

// renderGrid renders the quick evaluation the way Engine.RunAll does:
// the primary dataset on eng, every registry runner over eng's pool,
// renderings concatenated in registry order. At seed 42 the bytes equal
// RunAll(w, true). A recorder puts the dataset build and each runner in
// a span under parent; onRunner learns each runner's span before it
// runs, which a tracing backend uses as its cells' parent.
func renderGrid(eng *experiments.Engine, cfg experiments.Config, rec *Recorder, parent int, onRunner func(span int)) (*gridReport, error) {
	sp := rec.Start("experiments.build_dataset", parent)
	ds, err := eng.BuildDataset(cfg)
	rec.End(sp)
	if err != nil {
		return nil, err
	}
	reg := experiments.Registry()
	results := make([]*experiments.Result, len(reg))
	errs := make([]error, len(reg))
	eng.Pool().Each(len(reg), func(i int) {
		sp := rec.Start("experiments.runner."+reg[i].Name, parent)
		if onRunner != nil {
			onRunner(sp)
		}
		results[i], errs[i] = reg[i].Run(ds, cfg)
		rec.End(sp)
	})
	g := &gridReport{results: make(map[string]*experiments.Result, len(reg)), ds: ds}
	var buf bytes.Buffer
	for i, r := range reg {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, errs[i])
		}
		g.results[r.Name] = results[i]
		fmt.Fprintf(&buf, "==== %s ====\n%s\n", results[i].Name, results[i].Text)
	}
	g.text = buf.Bytes()
	return g, nil
}

// referenceDigest renders cfg's quick evaluation on the serial engine:
// the output gate every grid and fleet report is checked against.
func referenceDigest(cfg experiments.Config) ([32]byte, error) {
	g, err := renderGrid(experiments.NewEngine(1), cfg, nil, 0, nil)
	if err != nil {
		return [32]byte{}, fmt.Errorf("serial reference: %w", err)
	}
	return g.digest(), nil
}

// gridGate checks one rendered report against the serial reference.
func gridGate(g *gridReport, err error, ref [32]byte) bool {
	return err == nil && g != nil && g.digest() == ref
}

// runGridQuick: the quick evaluation on an in-process 2-worker engine.
func runGridQuick(opt Options) (*Result, error) {
	cfg := quickConfig(opt.Seed)
	ref, err := referenceDigest(cfg)
	if err != nil {
		return nil, err
	}
	// Set-up is engine construction alone, a fraction of a microsecond,
	// so each sample is the mean over a batch of constructions.
	const batch = 1000
	engineSetup := func() (time.Duration, error) {
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			experiments.NewEngine(2)
		}
		return time.Since(t0), nil
	}
	res := newResult()
	heap0 := liveHeap()
	var setups, reports []float64
	var heapMB, leak float64
	runPhase(opt.Budget, func(i int, p *phase) {
		setups, _ = sampleSetup(setups, 16, engineSetup)
		runtime.GC()
		eng := experiments.NewEngine(2)
		t0 := time.Now()
		g, err := renderGrid(eng, cfg, nil, 0, nil)
		if d := time.Since(t0); p.counts(i) {
			reports = append(reports, seconds(d))
		}
		ok := gridGate(g, err, ref)
		res.gate(ok, 1)
		if ok {
			leak = g.leakFrac()
		}
		if p.Done() {
			heapMB = mb(liveHeap(), heap0)
			runtime.KeepAlive(g)
		}
	})
	res.set("setup_s", median(setups)/batch, "s")
	res.set("report_s", median(reports), "s")
	res.set("heap_mb", heapMB, "MB")
	res.set("leak_frac", leak, "ratio")
	res.note("reports", float64(len(reports)), "count")
	res.note("fail_frac", float64(res.Failed)/float64(res.Attempted), "ratio")
	return res, nil
}

// --- fleet -------------------------------------------------------------------

// fleet is a coordinator with two in-process workers over loopback
// TCP: protocol v3, one slot and one engine worker each.
type fleet struct {
	coord *dist.Coordinator
	errs  chan error
	// wire counts the bytes both directions of every coordinator
	// connection carried.
	wire atomic.Int64
}

const fleetWorkers = 2

// startFleet listens, starts the workers and waits for both
// handshakes. Cells evaluated on the coordinator side draw from pool.
func startFleet(pool *par.Pool) (*fleet, error) {
	f := &fleet{errs: make(chan error, fleetWorkers)}
	netOpt := dist.NetOptions{Wrap: func(c net.Conn) net.Conn { return &countConn{Conn: c, n: &f.wire} }}
	coord, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorOptions{Pool: pool, Net: netOpt})
	if err != nil {
		return nil, err
	}
	f.coord = coord
	for i := 0; i < fleetWorkers; i++ {
		go func() {
			f.errs <- dist.Serve(coord.Addr(), dist.WorkerOptions{Slots: 1, EngineWorkers: 1})
		}()
	}
	if err := coord.WaitWorkers(fleetWorkers, 30*time.Second); err != nil {
		return nil, errors.Join(err, f.stop())
	}
	return f, nil
}

// stop closes the coordinator and waits for both workers to return.
func (f *fleet) stop() error {
	err := f.coord.Close()
	for i := 0; i < fleetWorkers; i++ {
		err = errors.Join(err, <-f.errs)
	}
	return err
}

// countConn counts the bytes read and written through a connection.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// --- traced grid backend -------------------------------------------------------

// tracingBackend evaluates a grid serially with experiments.EvalCell,
// the function the in-process backend runs per cell, putting each
// cell in a span under the runner that asked for it. It serves a
// serial engine, whose runners run one at a time on one goroutine.
type tracingBackend struct {
	rec    *Recorder
	parent int // the running runner's span
}

func (b *tracingBackend) setParent(span int) { b.parent = span }

func (b *tracingBackend) EvalGrid(ds *experiments.Dataset, schemes []experiments.Scheme) [][]*ml.Confusion {
	apps := trace.Apps
	cells := make([][]*ml.Confusion, len(schemes)*len(apps))
	for i := range cells {
		sp := b.rec.Start("experiments.cell", b.parent)
		cells[i] = experiments.EvalCell(ds, schemes[i/len(apps)], apps[i%len(apps)])
		b.rec.End(sp, "cells", 1)
	}
	return cells
}
