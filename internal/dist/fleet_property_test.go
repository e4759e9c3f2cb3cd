package dist_test

// Property coverage for the v3 scheduler: whatever the fleet does —
// randomized join/leave/wedge schedules, peers speaking a retired
// dialect — the grid must stay byte-identical to the serial engine,
// and the placement counters must stay consistent with each other.

import (
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"trafficreshape/internal/dist"
	"trafficreshape/internal/experiments"
	"trafficreshape/internal/trace"
)

// TestV2HelloRejected: the coordinator speaks protocol v3 only. A peer
// announcing the retired v2 dialect is turned away at the handshake
// and counted under HandshakesRejected, and no cell ever reaches it:
// the grid runs on the v3 worker, byte-identical to serial, and every
// admitted session reports v3.
func TestV2HelloRejected(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{LocalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// A v2 peer, spoken by hand: challenge in, v2 hello and trace-have
	// out ("TRDW" is the hello magic).
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := dist.ReadChallenge(conn); err != nil {
		t.Fatal(err)
	}
	if err := dist.EncodeHello(conn, dist.Hello{Magic: "TRDW", Version: 2, Slots: 2}); err != nil {
		t.Fatal(err)
	}
	// The coordinator may already have hung up; the rejection below is
	// what this test pins, not this write.
	_ = dist.EncodeTraceHave(conn, dist.TraceHave{})
	deadline := time.Now().Add(30 * time.Second)
	for coord.Stats().HandshakesRejected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("v2 hello was never rejected")
		}
		time.Sleep(10 * time.Millisecond)
	}

	startWorker(t, coord.Addr(), dist.WorkerOptions{Slots: 2, EngineWorkers: 2})
	if err := coord.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	got := experiments.NewEngine(4).WithBackend(coord).EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "fleet with a rejected v2 peer", want, got)

	st := coord.Stats()
	if st.HandshakesRejected != 1 {
		t.Errorf("HandshakesRejected = %d, want 1", st.HandshakesRejected)
	}
	if st.WorkersJoined != 1 {
		t.Errorf("WorkersJoined = %d, want only the v3 worker", st.WorkersJoined)
	}
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)
	if st.RemoteCells != wantCells {
		t.Errorf("v3 worker evaluated %d cells, want all %d", st.RemoteCells, wantCells)
	}
	for _, w := range st.Workers {
		if w.Proto != dist.ProtoVersion {
			t.Errorf("worker %s reports protocol %d, want %d", w.Name, w.Proto, dist.ProtoVersion)
		}
	}
	// The rejected connection is closed without a single frame.
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if msg, err := dist.ReadMessage(conn); err == nil {
		t.Errorf("rejected v2 peer received a frame: %+v", msg)
	}
}

// TestFleetChurnPropertyByteIdentical drives randomized fleets —
// workers that die after a few cells, wedge silently, wedge then
// recover, join late mid-grid — from fixed seeds and pins the one
// property that matters: the grid completes byte-identical to serial,
// every time, with the stats accounting for every cell exactly once.
func TestFleetChurnPropertyByteIdentical(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)

	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{
				LocalWorkers: 2,
				CellTimeout:  400 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()

			// One healthy worker guarantees forward progress without
			// local fallback doing all the work; the rest misbehave per
			// the seed.
			startWorker(t, coord.Addr(), dist.WorkerOptions{Slots: 2, EngineWorkers: 2})
			n := 1 + rng.Intn(2) // 1-2 chaotic workers alongside
			for i := 0; i < n; i++ {
				opt := dist.WorkerOptions{EngineWorkers: 2}
				switch rng.Intn(3) {
				case 0: // dies mid-assignment after a few cells
					opt.MaxCells = 1 + rng.Intn(3)
				case 1: // wedges forever: cell timeout must reclaim
					opt.WedgeCells = 1 + rng.Intn(3)
				case 2: // wedges then recovers
					opt.WedgeCells = 1 + rng.Intn(3)
					opt.WedgeFor = 1 + rng.Intn(2)
				}
				startWorker(t, coord.Addr(), opt)
			}
			if err := coord.WaitWorkers(1+n, 60*time.Second); err != nil {
				t.Fatal(err)
			}
			// A late joiner lands mid-grid (plain goroutine, not
			// startWorker: the timer may fire after the test ends).
			joinDelay := time.Duration(100+rng.Intn(400)) * time.Millisecond
			addr := coord.Addr()
			time.AfterFunc(joinDelay, func() {
				_ = dist.Serve(addr, dist.WorkerOptions{Slots: 2, EngineWorkers: 2})
			})

			eng := experiments.NewEngine(4).WithBackend(coord)
			got := eng.EvalSchemes(ds, experiments.StandardSchemes())
			sameConfusions(t, fmt.Sprintf("churn seed %d", seed), want, got)

			st := coord.Stats()
			if st.RemoteCells+st.LocalCells != wantCells {
				t.Errorf("%d remote + %d local != %d cells: some cell answered twice or not at all",
					st.RemoteCells, st.LocalCells, wantCells)
			}
			if st.LateDuplicates > st.TimedOut {
				t.Errorf("late duplicates (%d) exceed timeouts (%d)", st.LateDuplicates, st.TimedOut)
			}
			if st.BatchedCells > 0 && st.BatchesSent == 0 {
				t.Errorf("batched %d cells across zero batches", st.BatchedCells)
			}
			if st.CostObservations > st.RemoteCells {
				t.Errorf("cost observations (%d) exceed remote successes (%d)", st.CostObservations, st.RemoteCells)
			}
		})
	}
}
