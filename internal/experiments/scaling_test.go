package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestScalingIDs(t *testing.T) {
	ids := ScalingIDs()
	if len(ids) != 3 {
		t.Fatalf("ScalingIDs() = %v, want p1..p3", ids)
	}
	for _, id := range ids {
		if !IsScalingID(id) {
			t.Errorf("IsScalingID(%q) = false", id)
		}
		if title, ok := ScalingTitle(id); !ok || title == "" {
			t.Errorf("ScalingTitle(%q) = %q, %v", id, title, ok)
		}
		// The scaling family is deliberately outside the runners map: its
		// results are timing-dependent, so -exp all and the result store
		// must never see it.
		if _, err := Run(id, Params{InstBudget: 1000}); err == nil {
			t.Errorf("Run(%q) succeeded, want unknown-experiment error", id)
		}
	}
	if IsScalingID("t3") || IsScalingID("") {
		t.Error("IsScalingID accepted a non-scaling id")
	}
	if lvls := DefaultScalingLevels(); len(lvls) == 0 || lvls[0] != 1 {
		t.Errorf("DefaultScalingLevels() = %v, want 1..GOMAXPROCS", lvls)
	}
}

func TestMeasureScalingRejects(t *testing.T) {
	if _, err := MeasureScaling(Params{}, "p1", []int{1}); err == nil {
		t.Error("scaling id accepted as its own target")
	}
	if _, err := MeasureScaling(Params{}, "nope", []int{1}); err == nil {
		t.Error("unknown target accepted")
	}
	if _, err := MeasureScaling(Params{InstBudget: 1000}, "t3", []int{0}); err == nil {
		t.Error("level 0 accepted")
	}
	if _, err := MeasureScaling(Params{InstBudget: 1000}, "t3", []int{-2}); err == nil {
		t.Error("negative level accepted")
	}
}

// TestMeasureScalingCurve runs a tiny two-level curve end to end and
// checks the whole report shape: honest worker counts, consistent
// quantiles, per-worker detail summing to the cell count, identical
// fingerprints at every level, and a valid JSON round trip.
func TestMeasureScalingCurve(t *testing.T) {
	p := Params{InstBudget: 2000, Workloads: []string{"go", "li"}}
	rep, err := MeasureScaling(p, "t3", []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Target != "t3" || rep.Procs < 1 || rep.InstBudget != 2000 {
		t.Errorf("report header: %+v", rep)
	}
	if len(rep.Levels) != 2 {
		t.Fatalf("%d levels, want 2", len(rep.Levels))
	}
	if !rep.Identical {
		t.Error("determinism violated: levels produced different fingerprints")
	}
	if got := rep.SpeedupAt(1); got < 0.99 || got > 1.01 {
		t.Errorf("SpeedupAt(1) = %v, want 1.0 by construction", got)
	}
	if rep.SerialWallMS() <= 0 {
		t.Errorf("SerialWallMS() = %v, want > 0", rep.SerialWallMS())
	}
	for i, lv := range rep.Levels {
		if lv.Parallel != []int{1, 2}[i] {
			t.Errorf("level %d: parallel = %d", i, lv.Parallel)
		}
		if lv.Cells <= 0 || lv.WallMS <= 0 || lv.CellsPerSec <= 0 {
			t.Errorf("level %d: empty measurement: %+v", i, lv)
		}
		if lv.Workers < 1 || lv.Workers > lv.Parallel {
			t.Errorf("level %d: workers = %d, want 1..%d", i, lv.Workers, lv.Parallel)
		}
		if lv.Utilization <= 0 || lv.Utilization > 1.01 {
			t.Errorf("level %d: utilization = %v, outside (0,1]", i, lv.Utilization)
		}
		if lv.P50MS > lv.P95MS || lv.P95MS > lv.P99MS {
			t.Errorf("level %d: quantiles not monotone: p50=%v p95=%v p99=%v",
				i, lv.P50MS, lv.P95MS, lv.P99MS)
		}
		if lv.StragglerRatio < 1 {
			t.Errorf("level %d: straggler ratio = %v, want >= 1", i, lv.StragglerRatio)
		}
		if len(lv.Fingerprint) != 64 {
			t.Errorf("level %d: fingerprint %q, want sha256 hex", i, lv.Fingerprint)
		}
		var cells int
		for _, w := range lv.WorkerDetail {
			cells += w.Cells
		}
		if cells != lv.Cells {
			t.Errorf("level %d: worker detail sums to %d cells, level says %d", i, cells, lv.Cells)
		}
	}

	// The report must round-trip through JSON (the BENCH_scaling.json and
	// benchjson -validate-scaling interface).
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back ScalingReport
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Target != rep.Target || len(back.Levels) != len(rep.Levels) || !back.Identical {
		t.Errorf("JSON round trip lost data: %+v", back)
	}

	// Each scaling id renders a table from the same report.
	for _, id := range ScalingIDs() {
		res, err := RenderScaling(id, rep)
		if err != nil {
			t.Fatalf("RenderScaling(%s): %v", id, err)
		}
		if len(res.Tables) == 0 {
			t.Fatalf("RenderScaling(%s) produced no tables", id)
		}
		if txt := res.Tables[0].String(); !strings.Contains(txt, "1") {
			t.Errorf("RenderScaling(%s) table looks empty:\n%s", id, txt)
		}
	}
	if _, err := RenderScaling("t3", rep); err == nil {
		t.Error("RenderScaling accepted a non-scaling id")
	}
}
