package dist

// TestStatsSnapshotFieldStability pins the field-stability promise
// StatsSnapshot documents: promised fields are never renamed, retyped,
// or repurposed — only appended to. The test enumerates every promised
// field with its type via reflection; renaming or retyping one fails
// here before it breaks CI scripts or operator tooling downstream.
// Appending a new field does NOT fail this test (that is the allowed
// evolution) — add the new field to the table when it ships.

import (
	"reflect"
	"testing"
)

func TestStatsSnapshotFieldStability(t *testing.T) {
	promised := func(typ reflect.Type, fields map[string]string) {
		t.Helper()
		for name, want := range fields {
			f, ok := typ.FieldByName(name)
			if !ok {
				t.Errorf("%s.%s: promised field is gone (fields may only be appended, never removed or renamed)", typ.Name(), name)
				continue
			}
			if got := f.Type.String(); got != want {
				t.Errorf("%s.%s: type changed to %s, promised %s", typ.Name(), name, got, want)
			}
		}
	}

	promised(reflect.TypeOf(StatsSnapshot{}), map[string]string{
		// v2 surface.
		"RemoteCells":        "int",
		"LocalCells":         "int",
		"Reassigned":         "int",
		"TimedOut":           "int",
		"LateDuplicates":     "int",
		"RemoteCacheHits":    "int",
		"TracesSent":         "int",
		"HandshakesRejected": "int",
		"WorkersJoined":      "int",
		"WorkersLost":        "int",
		// v3 scheduler observability.
		"QueueDepth":         "int",
		"MaxQueueDepth":      "int",
		"BatchesSent":        "int",
		"BatchedCells":       "int",
		"LocalityPlacements": "int",
		"LocalityMisses":     "int",
		"LocalityDeferrals":  "int",
		"CostObservations":   "int",
		"Workers":            "[]dist.WorkerSnapshot",
	})

	promised(reflect.TypeOf(WorkerSnapshot{}), map[string]string{
		"Name":     "string",
		"Proto":    "int",
		"Slots":    "int",
		"InFlight": "int",
		"Wedged":   "int",
		"Cells":    "int",
		"Batches":  "int",
	})

	// A snapshot is a value copy: mutating it must not alias live
	// coordinator state. Workers is the only reference-typed field, so
	// pin that Stats() hands out a freshly built slice.
	c := newTestCoordinator()
	c.sessions[newTestSession()] = true
	a, b := c.Stats(), c.Stats()
	if len(a.Workers) != 1 || len(b.Workers) != 1 {
		t.Fatalf("snapshots saw %d/%d workers, want 1", len(a.Workers), len(b.Workers))
	}
	a.Workers[0].Cells = 999
	if b.Workers[0].Cells == 999 {
		t.Error("two snapshots share one Workers slice; Stats must copy")
	}
}
