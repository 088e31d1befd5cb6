package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/pipeline"
	"retstack/internal/sweep"
	"retstack/internal/workloads"
)

// sweptCalls returns the configurations of every runSims call every runner
// makes, one list per call in cell order, enumerated through onSims at a
// token budget on one workload.
func sweptCalls(t *testing.T) [][]config.Config {
	var calls [][]config.Config
	onSims = func(cells []simCell) {
		var cfgs []config.Config
		for _, c := range cells {
			cfgs = append(cfgs, c.cfg)
		}
		calls = append(calls, cfgs)
	}
	defer func() { onSims = nil }()
	for _, id := range IDs() {
		if _, err := Run(id, Params{InstBudget: 500, Workloads: []string{"li"}, Parallel: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return calls
}

// TestGroupedMatchesSolo holds lockstep units to the one-simulation-per-
// cell reference. Every runSims call any runner makes is replayed on four
// clones, from reset and from a warm state; its pending cells are grouped
// exactly as runUnits groups them, each multi-member unit runs through
// pipeline.NewLockstep and RunLockstep, forking depth first, and every
// member must end as its own solo simulation does: full Stats, registers,
// output and data memory. Then t3, f1, f2 and a5, run through Run, must
// form multi-member units and fork them, so a silent fallback to solo
// runs fails the test.
func TestGroupedMatchesSolo(t *testing.T) {
	const budget = 8_000
	calls := sweptCalls(t)
	for _, warmup := range []uint64{0, 20_000} {
		p := Params{InstBudget: budget, Warmup: warmup, Workloads: []string{"go", "li", "gcc", "m88ksim"}, Parallel: 1}
		ws, err := p.workloads()
		if err != nil {
			t.Fatal(err)
		}
		ims, err := buildImages(p, ws)
		if err != nil {
			t.Fatal(err)
		}
		rec := p.newRecyclers()
		members, forked := 0, 0
		for _, call := range calls {
			var cells []simCell
			for _, w := range ws {
				for _, cfg := range call {
					cells = append(cells, simCell{w, cfg})
				}
			}
			g := &grouper{p: p, cells: cells, ims: ims}
			pending := pendingCells(len(cells), nil)
			if warmup > 0 {
				if g.warm, err = p.warmCells(cells, pending, ims, rec); err != nil {
					t.Fatal(err)
				}
			}
			for _, u := range g.formUnits(pending) {
				if len(u) < 2 {
					continue
				}
				lead := cells[u[0]]
				var from *pipeline.WarmState
				if g.warm != nil {
					from = g.warm[u[0]].state
				}
				cfgs := make([]config.Config, len(u))
				for k, i := range u {
					cfgs[k] = cells[i].cfg
				}
				unit, err := pipeline.NewLockstep(cfgs, ims[lead.w.Name], from, nil)
				if err != nil {
					t.Fatal(err)
				}
				carriers, forks := runLockstepUnit(t, unit, budget)
				forked += forks
				for k, i := range u {
					members++
					solo, err := simulateCell(i, lead.w, ims[lead.w.Name], cells[i].cfg, p, nil, from)
					if err != nil {
						t.Fatal(err)
					}
					c := carriers[k]
					st := pipeline.StatsOf(c.sim, c.pos)
					if d := soloDiff(&st, c.sim, solo); d != "" {
						t.Errorf("warmup %d, %s, %s/%s/%d entries/K=%d: the grouped cell differs from its solo run in %s",
							warmup, lead.w.Name, cells[i].cfg.RASKind, cells[i].cfg.RASPolicy, cells[i].cfg.RASEntries, cells[i].cfg.RASTopK, d)
					}
				}
			}
		}
		if members == 0 || forked == 0 {
			t.Fatalf("warmup %d: %d grouped members, %d forks: the comparison is vacuous", warmup, members, forked)
		}
		t.Logf("warmup %d: %d grouped members matched their solo runs across %d forks", warmup, members, forked)
	}

	for _, id := range []string{"t3", "f1", "f2", "a5"} {
		formed, forks := unitStats.formed.Load(), unitStats.forks.Load()
		if _, err := Run(id, Params{InstBudget: 16_000, Workloads: []string{"go", "li"}, Parallel: 2}); err != nil {
			t.Fatal(err)
		}
		if unitStats.formed.Load() == formed || unitStats.forks.Load() == forks {
			t.Errorf("%s formed %d multi-member units and forked %d copies: want both above zero",
				id, unitStats.formed.Load()-formed, unitStats.forks.Load()-forks)
		}
	}
}

// carrier is where a lockstep member ended: its carrier, and its
// position among the carrier's members.
type carrier struct {
	sim *pipeline.Sim
	pos int
}

// runLockstepUnit drives a lockstep unit to the end, depth first, and
// returns where each member ended, by member name, and the copies it
// forked.
func runLockstepUnit(t *testing.T, s *pipeline.Sim, budget uint64) (map[int]carrier, int) {
	t.Helper()
	carriers := map[int]carrier{}
	forked := 0
	pending := []*pipeline.Sim{s}
	for len(pending) > 0 {
		s := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		forks, err := pipeline.RunLockstep(s, budget)
		if err != nil {
			t.Fatal(err)
		}
		if len(forks) > 0 {
			forked += len(forks)
			pending = append(pending, s)
			for _, f := range forks {
				pending = append(pending, f.Start(nil))
			}
			continue
		}
		for k, id := range pipeline.Carried(s) {
			carriers[id] = carrier{s, k}
		}
	}
	return carriers, forked
}

// soloDiff names the first difference between a grouped cell (its stats
// and carrier) and the cell's solo simulation, or "".
func soloDiff(st *pipeline.Stats, carrier, solo *pipeline.Sim) string {
	a, b := carrier.Machine(), solo.Machine()
	switch {
	case !reflect.DeepEqual(*st, *solo.Stats()):
		return fmt.Sprintf("Stats:\n%+v\nwant\n%+v", *st, *solo.Stats())
	case a.Regs != b.Regs || a.PC != b.PC:
		return "registers"
	case a.Output() != b.Output():
		return "output"
	case a.Mem.Digest() != b.Mem.Digest():
		return "data memory"
	}
	return ""
}

// TestUnitFailureFailsEveryCell: a lockstep unit whose simulation fails
// fails every cell it carried, each as its own hole under skip with the
// error a solo run of the cell gives, while other cells run.
func TestUnitFailureFailsEveryCell(t *testing.T) {
	bad := workloads.Workload{Name: "misaligned", InstPerUnit: 1, Source: func(int) string {
		return "main:\n    li $t0, 1\n    lw $t1, 0($t0)\n    li $v0, 1\n    syscall\n"
	}}
	li, _ := workloads.ByName("li")
	base := config.Baseline()
	p := Params{InstBudget: 1_000, OnCellError: sweep.Skip, expID: "unit-failure"}
	var holes []string
	p.holes = &holes

	im, err := buildFor(bad, p)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := pipeline.New(base, im)
	if err != nil {
		t.Fatal(err)
	}
	soloErr := solo.Run(p.InstBudget)
	if soloErr == nil {
		t.Fatal("the misaligned load did not fault")
	}
	formed := unitStats.formed.Load()
	out, err := runSims(p, []simCell{
		{bad, base}, {li, base}, {bad, base.WithPolicy(core.RepairFullStack)}, {bad, base.WithRASEntries(8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if unitStats.formed.Load() == formed {
		t.Fatal("the failing cells formed no unit")
	}
	if out[0].Sim != nil || out[2].Sim != nil || out[3].Sim != nil || out[1].Sim == nil {
		t.Errorf("cells ran %v %v %v %v, want only the li cell", out[0].Sim != nil, out[1].Sim != nil, out[2].Sim != nil, out[3].Sim != nil)
	}
	if len(holes) != 3 {
		t.Fatalf("holes = %q, want three", holes)
	}
	for k, cell := range []int{0, 2, 3} {
		want := fmt.Sprintf("sweep: cell %d: %s: %v", cell, bad.Name, soloErr)
		if holes[k] != want {
			t.Errorf("hole %d = %q, want %q", k, holes[k], want)
		}
	}
}

// TestGroupedCellAccounting: with lockstep units and forks in play, and
// with every cell a unit of one (a cycle sampler makes the run solo),
// every cell gets exactly one CellStart and one CellDone, the cells'
// durations (shares of their carriers' time) sum to the workers' busy
// time within 1%, utilization stays at most 1, and the per-worker cell
// counts sum to the sweep's cells.
func TestGroupedCellAccounting(t *testing.T) {
	for _, solo := range []bool{false, true} {
		counts := newCellCounts()
		var workers []sweep.WorkerStats
		p := Params{InstBudget: 20_000, Workloads: []string{"go", "li"}, Parallel: 2,
			Monitor: counts,
			OnWorkerStats: func(ws []sweep.WorkerStats) {
				workers = append(workers, ws...)
			}}
		if solo {
			p.Sample = func(int, pipeline.Sample) {}
		}
		start := time.Now()
		formed, forks := unitStats.formed.Load(), unitStats.forks.Load()
		if _, err := Run("f1", p); err != nil {
			t.Fatal(err)
		}
		wall := time.Since(start)
		if grouped := unitStats.forks.Load() > forks; grouped == solo {
			t.Fatalf("solo=%v: f1 forked %d carriers", solo, unitStats.forks.Load()-forks)
		}
		if solo && unitStats.formed.Load() != formed {
			t.Fatal("a solo run formed a multi-member unit")
		}
		var busy time.Duration
		started, finished := 0, 0
		for _, w := range workers {
			busy += w.Busy
			started += w.Started
			finished += w.Finished
		}
		if n := len(counts.starts); n == 0 || started != n || finished != n {
			t.Errorf("solo=%v: workers started %d and finished %d cells, the monitor saw %d", solo, started, finished, n)
		}
		counts.exactlyOnce(t)
		cells := sweep.Cells(workers)
		var elapsed time.Duration
		for _, c := range cells {
			elapsed += c.Elapsed
		}
		if len(cells) != len(counts.starts) {
			t.Errorf("solo=%v: %d cell records, the monitor saw %d cells", solo, len(cells), len(counts.starts))
		}
		if got, want := elapsed.Seconds(), busy.Seconds(); got < 0.99*want || got > 1.01*want {
			t.Errorf("solo=%v: cell durations sum to %.4fs, the workers were busy %.4fs", solo, got, want)
		}
		if u := busy.Seconds() / (2 * wall.Seconds()); u > 1 {
			t.Errorf("solo=%v: utilization %.3f > 1", solo, u)
		}
	}
}

// TestMonitorExactlyOnceUnderFailure is the Monitor contract under an
// aborting failure: an injected panic fails cell 3, every started cell —
// cells still running when it failed included — gets exactly one
// CellDone, and the failing cell's CellDone carries its *PanicError.
func TestMonitorExactlyOnceUnderFailure(t *testing.T) {
	counts := newCellCounts()
	p := resilParams()
	p.Monitor = counts
	p.Inject = mustPlan(t, "panic:3", 0)
	_, err := Run("t3", p)
	var ce *sweep.CellError
	if !errors.As(err, &ce) || ce.Cell != 3 {
		t.Fatalf("err = %v, want cell 3's *CellError", err)
	}
	counts.exactlyOnce(t)
	var pe *sweep.PanicError
	if !errors.As(counts.errs[3], &pe) || pe.Cell != 3 {
		t.Errorf("cell 3's CellDone error = %v, want its *PanicError", counts.errs[3])
	}
}

// TestMonitorExactlyOnceUnderCancellation: canceling at f1's first
// CellDone, while its units have forked copies parked, stops the sweep
// with context.Canceled, and every started cell still ends exactly once.
// With one worker the cancellation comes from the only worker, so the
// parked copies are certain and must end with the cancellation, and no
// cell may start after it; two workers race it against running carriers.
func TestMonitorExactlyOnceUnderCancellation(t *testing.T) {
	for _, parallel := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		counts := newCellCounts()
		counts.onDone = cancel
		p := Params{InstBudget: 20_000, Workloads: []string{"go", "li"}, Parallel: parallel,
			Ctx: ctx, Monitor: counts}
		_, err := Run("f1", p)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel %d: err = %v, want context.Canceled", parallel, err)
		}
		counts.exactlyOnce(t)
		if parallel > 1 {
			continue
		}
		abandoned := 0
		for _, err := range counts.errs {
			if errors.Is(err, context.Canceled) {
				abandoned++
			}
		}
		if abandoned == 0 {
			t.Error("no parked copy ended with the cancellation")
		}
		if counts.late > 0 {
			t.Errorf("%d cells started after the cancellation", counts.late)
		}
	}
}

// cellCounts records each cell's monitor callbacks and final error.
// onDone, if set, runs after every CellDone; late counts the cells
// started after the first onDone.
type cellCounts struct {
	mu            sync.Mutex
	starts, dones map[int]int
	errs          map[int]error
	onDone        func()
	stopped       bool
	late          int
}

func newCellCounts() *cellCounts {
	return &cellCounts{starts: map[int]int{}, dones: map[int]int{}, errs: map[int]error{}}
}

func (c *cellCounts) CellStart(cell, worker int) {
	c.mu.Lock()
	c.starts[cell]++
	if c.stopped {
		c.late++
	}
	c.mu.Unlock()
}

func (c *cellCounts) CellDone(cell, worker int, d time.Duration, err error) {
	c.mu.Lock()
	c.dones[cell]++
	c.errs[cell] = err
	c.stopped = c.onDone != nil
	c.mu.Unlock()
	if c.onDone != nil {
		c.onDone()
	}
}

// exactlyOnce checks that every started cell got one CellStart and one
// CellDone, and that no cell ended without starting.
func (c *cellCounts) exactlyOnce(t *testing.T) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, n := range c.starts {
		if n != 1 || c.dones[i] != 1 {
			t.Errorf("cell %d: %d starts, %d dones, want one each", i, n, c.dones[i])
		}
	}
	for i := range c.dones {
		if c.starts[i] == 0 {
			t.Errorf("cell %d ended without starting", i)
		}
	}
}
