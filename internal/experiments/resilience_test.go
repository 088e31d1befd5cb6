package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"retstack/internal/faultinject"
	"retstack/internal/sweep"
)

// t3 over two workloads is 8 cells (4 repair policies each): small enough
// to sweep repeatedly, big enough to exercise every policy path.
func resilParams() Params {
	return Params{InstBudget: 15_000, Workloads: []string{"go", "li"}, Parallel: 2}
}

func mustPlan(t *testing.T, spec string, seed uint64) *faultinject.Plan {
	t.Helper()
	p, err := faultinject.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSkipPolicyLeavesExplicitHole: under skip, the failing cell becomes a
// "-" table entry and a Result.Holes line — never a silent zero.
func TestSkipPolicyLeavesExplicitHole(t *testing.T) {
	p := resilParams()
	p.OnCellError = sweep.Skip
	p.Inject = mustPlan(t, "panic:3", 0)
	res, err := Run("t3", p)
	if err != nil {
		t.Fatalf("skip policy aborted: %v", err)
	}
	if len(res.Holes) != 1 {
		t.Fatalf("holes = %v, want exactly one", res.Holes)
	}
	if !strings.Contains(res.Holes[0], "cell 3") || !strings.Contains(res.Holes[0], "injected panic") ||
		!strings.Contains(res.Holes[0], "faultinject/faultinject.go") {
		t.Errorf("hole %q does not name the cell, the cause and the panic site", res.Holes[0])
	}
	out := res.String()
	if !strings.Contains(out, "hole: ") {
		t.Error("rendered result does not surface the hole")
	}
	// Cell 3 is (go, full): its row must show "-" and its values be absent.
	if !strings.Contains(out, "-") {
		t.Error("table does not render the hole as '-'")
	}
	if _, ok := res.Get("hit", "go", "full"); ok {
		t.Error("holed cell still produced a structured value")
	}
	if _, ok := res.Get("hit", "go", "none"); !ok {
		t.Error("sibling cells lost their values")
	}
}

// TestAbortPolicySurfacesCellError: the default policy turns the injected
// failure into a typed *CellError naming the cell.
func TestAbortPolicySurfacesCellError(t *testing.T) {
	p := resilParams()
	p.Inject = mustPlan(t, "panic:t3/3", 0)
	_, err := Run("t3", p)
	var ce *sweep.CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a *sweep.CellError", err)
	}
	if ce.Cell != 3 {
		t.Errorf("failing cell = %d, want 3", ce.Cell)
	}
}

// TestWatchdogAbandonsHungCell: an injected hang trips the per-cell
// watchdog; under skip the sweep completes with the hang as a hole.
func TestWatchdogAbandonsHungCell(t *testing.T) {
	p := resilParams()
	p.OnCellError = sweep.Skip
	// Generous: a healthy 15k-inst cell finishes in milliseconds even under
	// -race, while the injected hang blocks until the watchdog fires.
	p.CellTimeout = 3 * time.Second
	p.Inject = mustPlan(t, "hang:2", 0)
	res, err := Run("t3", p)
	if err != nil {
		t.Fatalf("watchdog did not contain the hang: %v", err)
	}
	if len(res.Holes) != 1 || !strings.HasPrefix(res.Holes[0], "sweep: cell 2: cell watchdog") {
		t.Errorf("holes = %v, want cell 2's watchdog timeout", res.Holes)
	}
}

// TestCancellationPropagates: a canceled context stops the sweep with
// context.Canceled, the signal rasbench's interrupted path keys on.
func TestCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := resilParams()
	p.Ctx = ctx
	_, err := Run("t3", p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCorruptionAbsorbedInSweep is the paper-aligned injection contract at
// the experiments level: corrupting a cell's live RAS mid-simulation must
// not fail the sweep or help the predictor — the corruption is repaired or
// becomes mispredictions.
func TestCorruptionAbsorbedInSweep(t *testing.T) {
	clean, err := Run("t3", resilParams())
	if err != nil {
		t.Fatal(err)
	}
	p := resilParams()
	p.Inject = mustPlan(t, "corrupt:0,corrupt:2", 42) // (go, none) and (go, proposal)
	hurt, err := Run("t3", p)
	if err != nil {
		t.Fatalf("corruption crashed the sweep: %v", err)
	}
	for _, cfg := range []string{"none", "tos-ptr+contents"} {
		ch, _ := clean.Get("hit", "go", cfg)
		hh, ok := hurt.Get("hit", "go", cfg)
		if !ok {
			t.Fatalf("corrupted cell (%s) produced no value", cfg)
		}
		if hh > ch+1e-9 {
			t.Errorf("%s: corruption improved the hit rate (%.4f > %.4f)", cfg, hh, ch)
		}
	}
	// Untouched cells are unaffected.
	cl, _ := clean.Get("hit", "li", "full")
	hl, _ := hurt.Get("hit", "li", "full")
	if cl != hl {
		t.Errorf("uninjected cell changed: %.6f vs %.6f", cl, hl)
	}
}
