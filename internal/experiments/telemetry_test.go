package experiments

import (
	"reflect"
	"sync/atomic"
	"testing"

	"retstack/internal/pipeline"
	"retstack/internal/sweep"
)

// TestTelemetryDoesNotPerturb is the determinism contract for the
// observability layer: running an experiment with a sweep monitor and a
// cycle sampler attached must render byte-identical tables and equal
// structured values versus a plain run, at any worker count. a7 covers
// SMT cells.
func TestTelemetryDoesNotPerturb(t *testing.T) {
	for _, exp := range []string{"t3", "a7"} {
		t.Run(exp, func(t *testing.T) { checkTelemetryInert(t, exp) })
	}
}

func checkTelemetryInert(t *testing.T, exp string) {
	base := Params{InstBudget: 6_000, Workloads: []string{"go", "li"}, Parallel: 1}
	plain, err := Run(exp, base)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		p := base
		p.Parallel = workers
		timing := sweep.NewTiming()
		p.Monitor = sweep.Monitors(timing)
		var samples, cells atomic.Int64
		p.Sample = func(cell int, sm pipeline.Sample) {
			samples.Add(1)
			if sm.RUUOccupancy < 0 || sm.RASDepth < 0 {
				t.Errorf("cell %d: negative occupancy in sample %+v", cell, sm)
			}
		}
		p.SampleEvery = 64

		res, err := Run(exp, p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.String() != plain.String() {
			t.Errorf("workers=%d: table output diverges with telemetry attached", workers)
		}
		if !reflect.DeepEqual(res.Values, plain.Values) {
			t.Errorf("workers=%d: structured values diverge with telemetry attached", workers)
		}
		if samples.Load() == 0 {
			t.Error("cycle sampler never fired")
		}
		cells.Store(int64(len(timing.Cells())))
		if cells.Load() == 0 {
			t.Error("sweep monitor saw no cells")
		}
		for _, c := range timing.Cells() {
			if c.Elapsed <= 0 {
				t.Errorf("cell %d: non-positive elapsed time", c.Cell)
			}
		}
	}
}
