package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"retstack/internal/config"
	"retstack/internal/pipeline"
	"retstack/internal/program"
	"retstack/internal/resultstore"
	"retstack/internal/sweep"
	"retstack/internal/workloads"
)

// One cell scheduler. Every cell a sweep simulates runs here, as a member
// of a unit: a group of pending cells simulated together, lead first.
//
// Simulate once, fork where the stacks disagree. Most sweeps vary only the
// return stack, and cells that differ only in it run cycle-identical
// pipelines until their stacks first predict different targets for one
// return (see pipeline.NewLockstep). runUnits therefore groups the pending
// cells of a sweep that share a workload, a start state (reset or one warm
// state) and every Config field but the stack's depth, repair policy and
// K, and runs each group as one lockstep unit: one simulation that forks
// where its members' stacks disagree, each copy (a carrier of the members
// that agree) becoming work any idle worker can take. Each cell's result
// is its carrier's, so tables, Values and stored records are those of one
// simulation per cell (TestGroupedMatchesSolo).
//
// Any other cell is a unit of one, its own simulation (see solo): a cell
// no lockstep Sim can carry, t2's cells (which also profile their workload
// on the functional emulator), and, when soloCells holds, every cell. A
// unit of one fires its cell's injected harness fault and, under the cell
// watchdog, runs on a goroutine the watchdog can abandon.
//
// Per cell, everything a sweep promises holds:
//   - every started cell gets one CellStart and one CellDone, and a store
//     hit gets neither; a cell's duration is its share of the carriers
//     that carried it (a carrier's time split evenly over its members), so
//     the cells' durations sum to the workers' busy time;
//   - a failure is the cell's *sweep.CellError (a panic's a
//     *sweep.PanicError naming the cell); a failing simulation fails every
//     cell it carried. Under skip each is a hole, reported in cell order;
//     under abort the sweep returns the lowest failing cell's error;
//   - with a store, every simulated cell is stored, fsynced, when its
//     carrier ends, before it counts as done, so rerunning an interrupted
//     sweep resumes it; the sweep holds its store claim until it returns
//     (see storeLookups), so a concurrent identical run waits and then
//     finds every cell stored;
//   - cancellation and an aborting failure stop units and forks from
//     starting; running carriers finish;
//   - at most Params.Parallel simulations run at once: one per worker.

// unitStats counts, for the tests that pin unit formation, the
// multi-member units formed, the copies they forked, and the cells whose
// results came from a simulation rather than the store.
var unitStats struct {
	formed, forks, simulated atomic.Int64
}

// soloCells reports whether every cell must be a unit of one: per-cell
// instrumentation (a tracer, a cycle sampler, injected faults) sees one
// machine per cell, and the watchdog abandons one cell at a time.
func (p Params) soloCells() bool {
	return p.Trace != nil || p.Sample != nil || p.Inject != nil || p.CellTimeout > 0
}

// work is what take hands a worker: a unit to start (fork nil), or a
// parked carrier, a copy one of the unit's carriers forked. unit lists
// the unit's cells, lead first.
type work struct {
	unit []int
	fork *pipeline.Fork
}

// unitWorker is one worker's recycler and accounting. Its clock is
// charged either as busy time, to the cells of the carrier that ran, or
// as waiting time.
type unitWorker struct {
	*sweep.Worker
	rec *pipeline.Recycler
}

// grouper is one runUnits call's scheduler.
type grouper struct {
	p       Params
	ctx     context.Context
	cells   []simCell
	profile bool // every cell also profiles its workload (t2)
	ims     map[string]*program.Image
	warm    []warmed // per cell; nil without a warm-up
	keys    []string // store keys; nil without a store
	out     []cellOut
	dur     []time.Duration // each cell's share of its carriers' time

	mu      sync.Mutex
	cond    sync.Cond
	units   [][]int // in lead order; next is the first not started
	next    int
	forks   []work // newest last: workers take the newest first
	active  int    // carriers running
	stopped bool

	fails sweep.Failures
}

// errAbandoned is the CellDone error of a cell whose parked carrier never
// started because an aborting failure stopped the sweep.
var errAbandoned = errors.New("abandoned: the sweep stopped before this cell's carrier started")

// runUnits is the sweep: the image pre-phase, the store claim and
// lookups, the warm phase, unit formation, and the worker pool that runs
// units and their forks. With profile set every cell is a unit of one
// that also profiles its workload on the functional emulator (t2's
// cells).
func (p Params) runUnits(cells []simCell, profile bool) ([]cellOut, error) {
	wls := make([]workloads.Workload, len(cells))
	for i, c := range cells {
		wls[i] = c.w
	}
	ims, err := buildImages(p, wls)
	if err != nil {
		return nil, err
	}
	rec := p.newRecyclers()
	keys, spliced, release, err := p.storeLookups(len(cells))
	if err != nil {
		return nil, err
	}
	defer release()
	pending := pendingCells(len(cells), spliced)
	g := &grouper{p: p, ctx: p.ctx(), cells: cells, profile: profile, ims: ims, keys: keys,
		out: make([]cellOut, len(cells)), dur: make([]time.Duration, len(cells)),
		fails: sweep.Failures{OnError: p.OnCellError}}
	g.cond.L = &g.mu
	if p.Warmup > 0 {
		if g.warm, err = p.warmCells(cells, pending, ims, rec); err != nil {
			return nil, err
		}
	}
	g.units = g.formUnits(pending)

	stop := context.AfterFunc(g.ctx, func() {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	})
	defer stop()
	workers := min(p.workers(), len(pending))
	ws := make([]*unitWorker, workers)
	var wg sync.WaitGroup
	for i := range ws {
		ws[i] = &unitWorker{Worker: sweep.NewWorker(i, p.Monitor), rec: rec.of(i)}
		wg.Add(1)
		go func(w *unitWorker) {
			defer wg.Done()
			for {
				wk, ok := g.take(w)
				if !ok {
					return
				}
				g.run(w, wk)
			}
		}(ws[i])
	}
	wg.Wait()
	if p.OnWorkerStats != nil {
		stats := make([]sweep.WorkerStats, workers)
		for i, w := range ws {
			stats[i] = w.Stats
		}
		p.OnWorkerStats(stats)
	}
	if err := g.fails.Err(); err != nil {
		return nil, err
	}
	if err := g.ctx.Err(); err != nil {
		return nil, err
	}
	for i, c := range spliced {
		g.out[i] = c
	}
	for _, f := range g.fails.Holes() {
		g.out[f.Cell] = cellOut{} // explicit hole
		if p.holes != nil {
			*p.holes = append(*p.holes, f.Error())
		}
	}
	return g.out, nil
}

// formUnits groups the pending cells. A cell joins the unit of the first
// pending cell with its workload, start state and pipeline.LockstepKey; a
// cell no lockstep Sim can carry, or whose warm-up failed, is a unit of
// its own, and so is every cell of a profiling or solo sweep.
func (g *grouper) formUnits(pending []int) [][]int {
	type key struct {
		workload string
		from     *pipeline.WarmState
		cfg      config.Config
	}
	index := map[key]int{}
	var units [][]int
	solo := g.profile || g.p.soloCells()
	for _, i := range pending {
		c := g.cells[i]
		var from *pipeline.WarmState
		if g.warm != nil {
			from = g.warm[i].state
		}
		if solo || !pipeline.Lockstepable(c.cfg) || (g.warm != nil && g.warm[i].err != nil) {
			units = append(units, []int{i})
			continue
		}
		k := key{c.w.Name, from, pipeline.LockstepKey(c.cfg)}
		if j, ok := index[k]; ok {
			units[j] = append(units[j], i)
			continue
		}
		index[k] = len(units)
		units = append(units, []int{i})
	}
	for _, u := range units {
		if len(u) > 1 {
			unitStats.formed.Add(1)
		}
	}
	return units
}

// take returns the next piece of work for w: the newest parked carrier,
// else the next unit. It returns ok=false once every unit has started and
// no carrier is running or parked. After cancellation or an aborting
// failure it starts nothing, and parked carriers end unstarted.
func (g *grouper) take(w *unitWorker) (work, bool) {
	g.mu.Lock()
	for {
		if !g.stopped && g.ctx.Err() != nil {
			g.stopped = true
		}
		if g.stopped && len(g.forks) > 0 {
			drained := g.forks
			g.forks = nil
			g.mu.Unlock()
			g.abandon(w, drained)
			g.mu.Lock()
			continue
		}
		if n := len(g.forks); n > 0 {
			f := g.forks[n-1]
			g.forks = g.forks[:n-1]
			g.active++
			g.mu.Unlock()
			return f, true
		}
		if !g.stopped && g.next < len(g.units) {
			u := g.units[g.next]
			g.next++
			g.active++
			g.mu.Unlock()
			return work{unit: u}, true
		}
		if g.active == 0 {
			g.mu.Unlock()
			return work{}, false
		}
		g.cond.Wait()
	}
}

// abandon ends parked carriers that will never start: each carried cell
// gets its CellDone with the reason and no result, and is no failure of
// its own (the cancellation or the failure that stopped the sweep is).
func (g *grouper) abandon(w *unitWorker, drained []work) {
	reason := g.ctx.Err()
	if reason == nil {
		reason = errAbandoned
	}
	for _, f := range drained {
		for _, i := range members(f.unit, f.fork.Carried()) {
			w.Done(i, g.dur[i], &sweep.CellError{Cell: i, Err: reason})
		}
	}
}

// run runs one piece of work take returned.
func (g *grouper) run(w *unitWorker, wk work) {
	w.Idle()
	if wk.fork != nil {
		g.runCarrier(w, wk.unit, wk.fork.Start(w.rec))
		return
	}
	for _, i := range wk.unit {
		w.Start(i)
	}
	g.runUnit(w, wk.unit)
}

// runUnit builds a unit's first carrier and runs it: a lockstep Sim over
// its members, or, for a unit of one, the cell's own simulation.
func (g *grouper) runUnit(w *unitWorker, unit []int) {
	lead := g.cells[unit[0]]
	var from *pipeline.WarmState
	if g.warm != nil {
		if err := g.warm[unit[0]].err; err != nil {
			g.charge(w, unit)
			g.finish(w, unit, nil, fmt.Errorf("%s: %w", lead.w.Name, err))
			return
		}
		from = g.warm[unit[0]].state
	}
	if len(unit) == 1 {
		out, err := g.solo(w, unit[0], from)
		g.charge(w, unit)
		g.finish(w, unit, []cellOut{out}, err)
		return
	}
	im := g.ims[lead.w.Name]
	cfgs := make([]config.Config, len(unit))
	for k, i := range unit {
		cfgs[k] = g.cells[i].cfg
	}
	var sim *pipeline.Sim
	if err := sweep.Protect(unit[0], func() (err error) {
		sim, err = pipeline.NewLockstep(cfgs, im, from, w.rec)
		return err
	}); err != nil {
		g.charge(w, unit)
		g.finish(w, unit, nil, fmt.Errorf("%s: %w", lead.w.Name, err))
		return
	}
	g.runCarrier(w, unit, sim)
}

// runCarrier runs a lockstep carrier of a unit to the end, parking the
// copies it forks, and records its members' results.
func (g *grouper) runCarrier(w *unitWorker, unit []int, sim *pipeline.Sim) {
	name := g.cells[unit[0]].w.Name
	for {
		cells := members(unit, pipeline.Carried(sim))
		var forks []*pipeline.Fork
		var outs []cellOut
		err := sweep.Protect(cells[0], func() (err error) {
			g.p.doCells(g.ctx, cells, func() { forks, err = pipeline.RunLockstep(sim, g.p.InstBudget) })
			if err != nil || len(forks) > 0 {
				return err
			}
			vals := make([]pipeline.Stats, len(cells))
			outs = make([]cellOut, len(cells))
			for k := range vals {
				vals[k] = pipeline.StatsOf(sim, k)
				outs[k] = cellOut{Sim: &vals[k]}
			}
			sim.Release(w.rec)
			return nil
		})
		g.charge(w, cells)
		if err != nil || len(forks) == 0 {
			if err != nil {
				err = fmt.Errorf("%s: %w", name, err)
			}
			g.finish(w, cells, outs, err)
			return
		}
		unitStats.forks.Add(int64(len(forks)))
		g.mu.Lock()
		for _, f := range forks {
			g.forks = append(g.forks, work{unit, f})
		}
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// members maps lockstep member names to the unit's cells.
func members(unit, ids []int) []int {
	if ids == nil {
		return unit
	}
	cells := make([]int, len(ids))
	for k, id := range ids {
		cells[k] = unit[id]
	}
	return cells
}

// finish records a carrier's end: each cell's result (outs[k] for
// cells[k]) and, with a store, its record, or err for every cell.
func (g *grouper) finish(w *unitWorker, cells []int, outs []cellOut, err error) {
	for k, i := range cells {
		cerr := err
		if err == nil {
			g.out[i] = outs[k]
			unitStats.simulated.Add(1)
			cerr = g.persist(i)
		}
		g.done(w, i, cerr)
	}
	g.mu.Lock()
	g.active--
	g.cond.Broadcast()
	g.mu.Unlock()
}

// persist stores a simulated cell's result. A storage failure leaves the
// cell uncached, not failed.
func (g *grouper) persist(i int) error {
	if g.p.Store == nil {
		return nil
	}
	raw, err := json.Marshal(g.out[i])
	if err == nil {
		err = g.p.Store.Put(g.keys[i], raw, resultstore.Provenance{Scope: g.p.StoreScope, Exp: g.p.expID, Cell: i})
	}
	if err != nil && resultstore.IsIO(err) {
		if g.p.OnStoreFault != nil {
			g.p.OnStoreFault(err)
		}
		return nil
	}
	return err
}

// done ends cell i on w: its CellDone, and, for an error, its failure
// under the sweep's policy: a hole under skip (cancellation is never a
// hole), else an abort that keeps the lowest failing cell's error.
func (g *grouper) done(w *unitWorker, i int, err error) {
	var ce *sweep.CellError
	if err != nil {
		if pe, ok := err.(*sweep.PanicError); ok {
			cp := *pe
			cp.Cell = i
			err = &cp
		}
		ce = &sweep.CellError{Cell: i, Err: err}
		err = ce
	}
	w.Done(i, g.dur[i], err)
	if err == nil || !g.fails.Add(ce) {
		return
	}
	g.mu.Lock()
	g.stopped = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// charge ends w's current interval as busy time, shared evenly by the
// cells that ran in it.
func (g *grouper) charge(w *unitWorker, cells []int) {
	share := w.Busy() / time.Duration(len(cells))
	for _, i := range cells {
		g.dur[i] += share
	}
}

// solo runs cell i as its own simulation, from the warm state from (nil:
// from reset). The cell's injected harness fault fires first, a profiling
// sweep's cell profiles its workload on the functional emulator, and the
// whole body runs under the cell watchdog (sweep.Watch). Recycling is off
// under the watchdog (see newRecyclers), so an abandoned body shares no
// storage with the worker's next cell.
func (g *grouper) solo(w *unitWorker, i int, from *pipeline.WarmState) (cellOut, error) {
	c := g.cells[i]
	im := g.ims[c.w.Name]
	return sweep.Watch(g.ctx, g.p.CellTimeout, i, func(ctx context.Context) (out cellOut, err error) {
		if err := g.p.Inject.Harness(ctx, g.p.expID, i); err != nil {
			return out, err
		}
		g.p.doCell(ctx, i, func() {
			if g.profile {
				if out.Profile, err = profileOf(c.w, im, g.p.InstBudget); err != nil {
					return
				}
			}
			var sim *pipeline.Sim
			if sim, err = simulateCell(i, c.w, im, c.cfg, g.p, w.rec, from); err == nil {
				out.Sim = sim.Stats()
			}
		})
		return out, err
	})
}
