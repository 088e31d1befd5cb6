package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"retstack/internal/config"
	"retstack/internal/pipeline"
	"retstack/internal/program"
	"retstack/internal/resultstore"
	"retstack/internal/sweep"
)

// Simulate once, fork where the stacks disagree. Most sweeps vary only the
// return stack, and cells that differ only in it run cycle-identical
// pipelines until their stacks first predict different targets for one
// return (see pipeline.NewLockstep). runUnits therefore groups the pending
// cells of a runSims call that share a workload, a start state (reset or
// one warm state) and every Config field but the stack's depth, repair
// policy and K, and runs each group as one lockstep unit: one simulation
// that forks where its members' stacks disagree, each copy (a carrier of
// the members that agree) becoming work any idle worker can take. Each
// cell's result is its carrier's, so tables, Values and stored records are
// those of one simulation per cell (TestGroupedMatchesSolo).
//
// Per cell, everything a sweep promises still holds:
//   - every announced cell gets one CellStart and one CellDone; a cell's
//     duration is its share of the carriers that carried it (a carrier's
//     time split evenly over its members), so the cells' durations sum to
//     the workers' busy time;
//   - a failing simulation fails every cell it carried, each as its own
//     CellError: a hole each under skip;
//   - with a store, a unit runs inside the store flight of its lead (its
//     lowest pending cell) and persists its other members before that
//     flight completes, so a concurrent identical run shares the lead's
//     flight and then finds the members stored;
//   - cancellation and an aborting failure stop units and forks from
//     starting; running carriers finish;
//   - at most Params.Parallel simulations run at once: one per worker.

// unitStats counts, for the tests that pin unit formation, the
// multi-member units formed, the copies they forked, and the cells whose
// results came from a simulation rather than the store.
var unitStats struct {
	formed, forks, simulated atomic.Int64
}

// soloCells reports whether every cell must run as its own simulation:
// per-cell instrumentation (a tracer, a cycle sampler, injected faults)
// sees one machine per cell, the watchdog abandons one cell at a time, and
// retry re-runs one cell at a time.
func (p Params) soloCells() bool {
	return p.Trace != nil || p.Sample != nil || p.Inject != nil || p.CellTimeout > 0 ||
		p.OnCellError == sweep.Retry
}

// unit is a group of pending cells simulated together, lead first.
type unit struct {
	cells []int
	// left counts the unit's carriers still running or parked (under
	// grouper.mu); the unit is done at zero.
	left int
	// flight marks a unit running inside its lead's store flight: the
	// lead's result goes to the flight (leadOut, leadErr), not to the
	// sweep, when its carrier ends.
	flight  bool
	leadOut *pipeline.Stats
	leadErr error
}

// parked is a forked carrier waiting for a worker.
type parked struct {
	u    *unit
	fork *pipeline.Fork
}

// unitWorker is one worker's recycler and accounting. Its clock (mark)
// is charged either as busy time, to the cells of the carrier that ran,
// or as waiting time.
type unitWorker struct {
	sweep.WorkerStats
	rec  *pipeline.Recycler
	mark time.Time
}

// grouper is one runUnits call's scheduler.
type grouper struct {
	p     Params
	ctx   context.Context
	cells []simCell
	ims   map[string]*program.Image
	warm  []warmed // per cell; nil without a warm-up
	keys  []string // store keys; nil without a store
	out   []cellOut
	dur   []time.Duration // each cell's share of its carriers' time

	mu      sync.Mutex
	cond    sync.Cond
	units   []*unit // in lead order; next is the first not started
	next    int
	forks   []parked // newest last: workers take the newest first
	active  int      // carriers running
	stopped bool

	failMu sync.Mutex
	errIdx int
	errVal error
	fails  []sweep.CellFailure
}

// errAbandoned is the CellDone error of a cell whose parked carrier never
// started because an aborting failure stopped the sweep.
var errAbandoned = errors.New("abandoned: the sweep stopped before this cell's carrier started")

// runUnits is runSims' grouped path: store lookups, the warm phase, unit
// formation, and the worker pool that runs units and their forks.
func (p Params) runUnits(cells []simCell, ims map[string]*program.Image, rec recyclers) ([]cellOut, error) {
	keys, spliced := p.storeLookups(len(cells))
	pending := pendingCells(len(cells), spliced)
	g := &grouper{p: p, ctx: p.ctx(), cells: cells, ims: ims, keys: keys,
		out: make([]cellOut, len(cells)), dur: make([]time.Duration, len(cells)), errIdx: len(cells)}
	g.cond.L = &g.mu
	if p.Warmup > 0 {
		var err error
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
		ws[i] = &unitWorker{WorkerStats: sweep.WorkerStats{Worker: i}, rec: rec.of(i), mark: time.Now()}
		wg.Add(1)
		go func(w *unitWorker) {
			defer wg.Done()
			for {
				u, f, ok := g.take(w, nil)
				if !ok {
					return
				}
				g.run(w, u, f)
			}
		}(ws[i])
	}
	wg.Wait()
	if p.OnWorkerStats != nil {
		stats := make([]sweep.WorkerStats, workers)
		for i, w := range ws {
			stats[i] = w.WorkerStats
		}
		p.OnWorkerStats(stats)
	}
	if g.errVal != nil {
		return nil, g.errVal
	}
	if err := g.ctx.Err(); err != nil {
		return nil, err
	}
	sort.Slice(g.fails, func(a, b int) bool { return g.fails[a].Cell < g.fails[b].Cell })
	return p.assemble(g.out, spliced, g.fails), nil
}

// formUnits groups the pending cells. A cell joins the unit of the first
// pending cell with its workload, start state and pipeline.LockstepKey; a
// cell no lockstep Sim can carry, or whose warm-up failed, is a unit of
// its own.
func (g *grouper) formUnits(pending []int) []*unit {
	type key struct {
		workload string
		from     *pipeline.WarmState
		cfg      config.Config
	}
	index := map[key]*unit{}
	var units []*unit
	for _, i := range pending {
		c := g.cells[i]
		var from *pipeline.WarmState
		if g.warm != nil {
			from = g.warm[i].state
		}
		if !pipeline.Lockstepable(c.cfg) || (g.warm != nil && g.warm[i].err != nil) {
			units = append(units, &unit{cells: []int{i}})
			continue
		}
		k := key{c.w.Name, from, pipeline.LockstepKey(c.cfg)}
		if u, ok := index[k]; ok {
			u.cells = append(u.cells, i)
			continue
		}
		u := &unit{cells: []int{i}}
		index[k] = u
		units = append(units, u)
	}
	for _, u := range units {
		if len(u.cells) > 1 {
			unitStats.formed.Add(1)
		}
	}
	return units
}

// take returns the next piece of work for w: the newest parked carrier,
// else (unless w is waiting for unit waitFor, when it takes only parked
// carriers) the next unit. It returns ok=false once nothing is left: for
// a waiting worker, once waitFor is done; otherwise once every unit has
// started and no carrier is running or parked. After cancellation or an
// aborting failure it starts nothing, and parked carriers end unstarted.
func (g *grouper) take(w *unitWorker, waitFor *unit) (*unit, *parked, bool) {
	g.mu.Lock()
	for {
		if waitFor != nil && waitFor.left == 0 {
			g.mu.Unlock()
			return nil, nil, false
		}
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
			return nil, &f, true
		}
		if waitFor == nil && !g.stopped && g.next < len(g.units) {
			u := g.units[g.next]
			g.next++
			u.left = 1
			g.active++
			g.mu.Unlock()
			return u, nil, true
		}
		if waitFor == nil && g.active == 0 && (g.stopped || g.next == len(g.units)) {
			g.mu.Unlock()
			return nil, nil, false
		}
		g.cond.Wait()
	}
}

// abandon ends parked carriers that will never start: each carried cell
// gets its CellDone with the reason and no result, and is no failure of
// its own (the cancellation or the failure that stopped the sweep is).
func (g *grouper) abandon(w *unitWorker, drained []parked) {
	reason := g.ctx.Err()
	if reason == nil {
		reason = errAbandoned
	}
	for _, f := range drained {
		for _, i := range g.members(f.u, f.fork.Carried()) {
			if g.flightLead(f.u, i) {
				f.u.leadErr = reason
				continue
			}
			if m := g.p.Monitor; m != nil {
				m.CellDone(i, w.Worker, g.dur[i], &sweep.CellError{Cell: i, Attempt: 1, Err: reason})
			}
			w.Finished++
			w.Errs++
		}
		g.carrierDone(f.u, false)
	}
}

// run runs one piece of work take returned.
func (g *grouper) run(w *unitWorker, u *unit, f *parked) {
	w.idle()
	if f != nil {
		g.runCarrier(w, f.u, f.fork.Start(w.rec))
		return
	}
	for _, i := range u.cells {
		if m := g.p.Monitor; m != nil {
			m.CellStart(i, w.Worker)
		}
		w.Started++
	}
	g.startUnit(w, u)
}

// startUnit runs a unit, inside its lead's store flight when there is a
// store.
func (g *grouper) startUnit(w *unitWorker, u *unit) {
	if g.p.Store == nil {
		g.runUnit(w, u)
		return
	}
	lead := u.cells[0]
	u.flight = true
	computed := false
	raw, _, outcome, err := g.p.Store.Do(g.ctx, g.keys[lead], func() ([]byte, resultstore.Provenance, error) {
		computed = true
		g.runUnit(w, u)
		g.await(w, u)
		if u.leadErr != nil {
			return nil, resultstore.Provenance{}, u.leadErr
		}
		b, err := json.Marshal(cellOut{Sim: u.leadOut})
		return b, resultstore.Provenance{Scope: g.p.StoreScope, Exp: g.p.expID, Cell: lead}, err
	})
	g.charge(w, []int{lead}) // the lead's record, or the wait for another run's flight
	if !computed {
		g.carrierDone(u, true) // the unit's first carrier never ran
	}
	switch {
	case computed && (err == nil || resultstore.IsIO(err)):
		if err != nil && g.p.OnStoreFault != nil {
			g.p.OnStoreFault(err)
		}
		g.out[lead] = cellOut{Sim: u.leadOut}
		unitStats.simulated.Add(1)
		g.done(w, lead, nil)
	case computed:
		g.done(w, lead, err)
	case err != nil: // gave up waiting for another run's flight
		for _, i := range u.cells {
			g.done(w, i, err)
		}
	default:
		// Another run simulated the lead; it stored the unit's other
		// members before its flight ended. Any it could not store are
		// simulated here, as a unit of their own.
		var c cellOut
		if err := json.Unmarshal(raw, &c); err != nil {
			g.done(w, lead, fmt.Errorf("store %s cell %d: %w", g.p.expID, lead, err))
		} else {
			g.out[lead] = c
			g.storeHit(lead, outcome == resultstore.SharedFlight)
			g.done(w, lead, nil)
		}
		var missing []int
		for _, i := range u.cells[1:] {
			var c cellOut
			if raw, _, ok := g.p.Store.Get(g.keys[i]); ok && json.Unmarshal(raw, &c) == nil {
				g.out[i] = c
				g.storeHit(i, false)
				g.done(w, i, nil)
				continue
			}
			missing = append(missing, i)
		}
		switch {
		case len(missing) == 0:
		case g.ctx.Err() != nil:
			for _, i := range missing {
				g.done(w, i, g.ctx.Err())
			}
		default:
			g.mu.Lock()
			g.active++
			g.mu.Unlock()
			g.startUnit(w, &unit{cells: missing, left: 1})
		}
	}
}

func (g *grouper) storeHit(cell int, shared bool) {
	if g.p.OnStoreHit != nil {
		g.p.OnStoreHit(g.p.expID, cell, shared)
	}
}

// await helps run parked carriers until unit u is done.
func (g *grouper) await(w *unitWorker, u *unit) {
	for {
		_, f, ok := g.take(w, u)
		if !ok {
			w.idle()
			return
		}
		g.run(w, nil, f)
	}
}

// runUnit builds a unit's first carrier and runs it: a lockstep Sim over
// its members, or, for a unit of one, the cell's own simulation.
func (g *grouper) runUnit(w *unitWorker, u *unit) {
	lead := g.cells[u.cells[0]]
	var from *pipeline.WarmState
	if g.warm != nil {
		if err := g.warm[u.cells[0]].err; err != nil {
			g.charge(w, u.cells)
			g.finish(w, u, u.cells, nil, fmt.Errorf("%s: %w", lead.w.Name, err))
			return
		}
		from = g.warm[u.cells[0]].state
	}
	im := g.ims[lead.w.Name]
	if len(u.cells) == 1 {
		var sim *pipeline.Sim
		err := protect(func() (err error) {
			g.p.doCell(g.ctx, u.cells[0], func() {
				sim, err = simulateCell(u.cells[0], lead.w, im, lead.cfg, g.p, w.rec, from)
			})
			return err
		})
		g.charge(w, u.cells)
		if err != nil {
			g.finish(w, u, u.cells, nil, err)
			return
		}
		g.finish(w, u, u.cells, []*pipeline.Stats{sim.Stats()}, nil)
		return
	}
	cfgs := make([]config.Config, len(u.cells))
	for k, i := range u.cells {
		cfgs[k] = g.cells[i].cfg
	}
	var sim *pipeline.Sim
	if err := protect(func() (err error) {
		sim, err = pipeline.NewLockstep(cfgs, im, from, w.rec)
		return err
	}); err != nil {
		g.charge(w, u.cells)
		g.finish(w, u, u.cells, nil, fmt.Errorf("%s: %w", lead.w.Name, err))
		return
	}
	g.runCarrier(w, u, sim)
}

// runCarrier runs a lockstep carrier of unit u to the end, parking the
// copies it forks, and records its members' results.
func (g *grouper) runCarrier(w *unitWorker, u *unit, sim *pipeline.Sim) {
	name := g.cells[u.cells[0]].w.Name
	for {
		cells := g.members(u, pipeline.Carried(sim))
		var forks []*pipeline.Fork
		var stats []*pipeline.Stats
		err := protect(func() (err error) {
			g.p.doCells(g.ctx, cells, func() { forks, err = pipeline.RunLockstep(sim, g.p.InstBudget) })
			if err != nil || len(forks) > 0 {
				return err
			}
			vals := make([]pipeline.Stats, len(cells))
			stats = make([]*pipeline.Stats, len(cells))
			for k := range vals {
				vals[k] = pipeline.StatsOf(sim, k)
				stats[k] = &vals[k]
			}
			sim.Release(w.rec)
			return nil
		})
		g.charge(w, cells)
		if err != nil || len(forks) == 0 {
			if err != nil {
				err = fmt.Errorf("%s: %w", name, err)
			}
			g.finish(w, u, cells, stats, err)
			return
		}
		unitStats.forks.Add(int64(len(forks)))
		g.mu.Lock()
		u.left += len(forks)
		for _, f := range forks {
			g.forks = append(g.forks, parked{u, f})
		}
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// members maps lockstep member names to the unit's cells.
func (g *grouper) members(u *unit, ids []int) []int {
	if ids == nil {
		return u.cells
	}
	cells := make([]int, len(ids))
	for k, id := range ids {
		cells[k] = u.cells[id]
	}
	return cells
}

// finish records a carrier's end: each cell's result (stats[k] for
// cells[k]) and, with a store, its record, or err for every cell.
func (g *grouper) finish(w *unitWorker, u *unit, cells []int, stats []*pipeline.Stats, err error) {
	for k, i := range cells {
		if g.flightLead(u, i) {
			if err != nil {
				u.leadErr = err
			} else {
				u.leadOut = stats[k]
			}
			continue
		}
		cerr := err
		if err == nil {
			g.out[i] = cellOut{Sim: stats[k]}
			unitStats.simulated.Add(1)
			cerr = g.persist(i)
		}
		g.done(w, i, cerr)
	}
	g.carrierDone(u, true)
}

// flightLead reports whether cell i is the lead of a unit running inside
// its store flight.
func (g *grouper) flightLead(u *unit, i int) bool { return u.flight && i == u.cells[0] }

// persist stores a member's result, as storeCell's flight would. A
// storage failure leaves the cell uncached, not failed.
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

// carrierDone retires one of u's carriers; running says it was running
// rather than parked.
func (g *grouper) carrierDone(u *unit, running bool) {
	g.mu.Lock()
	u.left--
	if running {
		g.active--
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// done ends cell i on w: its CellDone, and, for an error, its failure
// under the sweep's policy, as the sweep engine routes it.
func (g *grouper) done(w *unitWorker, i int, err error) {
	if err != nil {
		if pe, ok := err.(*sweep.PanicError); ok {
			cp := *pe
			cp.Cell = i
			err = &cp
		}
		err = &sweep.CellError{Cell: i, Attempt: 1, Err: err}
	}
	if m := g.p.Monitor; m != nil {
		m.CellDone(i, w.Worker, g.dur[i], err)
	}
	w.Finished++
	if err == nil {
		return
	}
	w.Errs++
	g.failMu.Lock()
	defer g.failMu.Unlock()
	if g.p.OnCellError == sweep.Skip && !errors.Is(err, context.Canceled) {
		g.fails = append(g.fails, sweep.CellFailure{Cell: i, Err: err})
		return
	}
	if i < g.errIdx {
		g.errIdx, g.errVal = i, err
	}
	g.mu.Lock()
	g.stopped = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// charge ends w's current interval as busy time, shared evenly by the
// cells that ran in it.
func (g *grouper) charge(w *unitWorker, cells []int) {
	now := time.Now()
	d := now.Sub(w.mark)
	w.mark = now
	w.Busy += d
	share := d / time.Duration(len(cells))
	for _, i := range cells {
		g.dur[i] += share
	}
}

// idle ends w's current interval as waiting time.
func (w *unitWorker) idle() {
	now := time.Now()
	w.Wait += now.Sub(w.mark)
	w.mark = now
}

// protect runs fn, converting a panic into a *sweep.PanicError as the
// sweep engine does for a cell.
func protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &sweep.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}
