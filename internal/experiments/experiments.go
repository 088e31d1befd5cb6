// Package experiments reproduces the paper's tables and figures. Each
// experiment has an ID (t1-t4 for tables, f1-f5 for figures, a1-a8 for the
// ablations/extensions DESIGN.md motivates), runs the relevant
// configuration sweep over the SPECint95 workload clones, and renders rows
// shaped like the paper's artifact. Structured values are also exposed for
// the benchmark harness and EXPERIMENTS.md.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"retstack/internal/config"
	"retstack/internal/faultinject"
	"retstack/internal/pipeline"
	"retstack/internal/program"
	"retstack/internal/resultstore"
	"retstack/internal/stats"
	"retstack/internal/sweep"
	"retstack/internal/workloads"
)

// Params controls an experiment run.
type Params struct {
	// InstBudget is the number of instructions committed per simulation.
	InstBudget uint64
	// Warmup fast-forwards this many instructions before cycle simulation
	// (the paper's fast mode: caches and predictors warm, no timing).
	Warmup uint64
	// Workloads optionally restricts the benchmark set (default: the
	// eight SPECint95 clones).
	Workloads []string
	// Parallel bounds how many simulations run concurrently (the rasbench
	// -parallel flag). Values below 1 select runtime.GOMAXPROCS(0); 1 runs
	// serially. Each cell's result is its own simulation's, and results
	// are reassembled deterministically, so tables and Values are
	// byte-identical at every setting.
	Parallel int

	// Monitor, if non-nil, observes every sweep cell's lifecycle: start,
	// completion, owning worker, and wall-clock duration. Strictly
	// observational — it cannot affect results (asserted by
	// TestTelemetryDoesNotPerturb).
	Monitor sweep.Monitor
	// OnWorkerStats, if non-nil, receives the cell scheduler's per-worker
	// accounting (cells started/finished, busy and queue-wait wall clock,
	// and a record of each cell) once the worker pool has finished. Every
	// experiment sweeps at most once, so it fires at most once per Run:
	// once for a sweep (with no workers when the store served every cell),
	// never for t1, which simulates nothing, or for a sweep that failed
	// before any cell started. Strictly observational, like Monitor.
	OnWorkerStats func([]sweep.WorkerStats)
	// Sample, if non-nil, attaches a cycle sampler to every simulation:
	// every SampleEvery cycles (0 = pipeline.DefaultSampleEvery) it
	// receives the sweep-cell index and a read-only pipeline snapshot.
	// Samples from concurrent cells interleave; aggregate them with
	// commutative operations (counters, histograms).
	Sample      func(cell int, sm pipeline.Sample)
	SampleEvery uint64

	// Trace, if non-nil, attaches the misprediction-attribution tracer to
	// every simulation and (optionally) writes per-cell JSONL trace files.
	// Strictly observational, like Monitor and Sample.
	Trace *TraceParams

	// Resilience knobs (the rasbench flags of the same names). Zero values
	// are the legacy behavior: background context, abort on the first
	// failing cell, no watchdog, no store, no injection.

	// Ctx cancels the sweep between cells: once done, no new cells are
	// started, in-flight cells drain, and Run returns Ctx.Err().
	Ctx context.Context
	// OnCellError selects what a failing cell does to the sweep: abort
	// (default) or skip (an explicit hole in the tables). Every cell is
	// deterministic, so a cell that fails once fails on every run.
	OnCellError sweep.OnError
	// CellTimeout arms the per-cell watchdog: every cell runs as its own
	// simulation, and one producing no result within the limit is
	// abandoned and fails with a *sweep.TimeoutError. Worker-pooled
	// simulator recycling is disabled: an abandoned cell may still be
	// running when the worker starts its next one, so they must not
	// share storage.
	CellTimeout time.Duration
	// Inject is the parsed -inject fault plan (nil injects nothing).
	Inject *faultinject.Plan
	// Store, when non-nil, is the content-addressed result cache (the
	// rasbench -store flag, rasserve's backing store): before a cell
	// simulates, the store is probed under CellKey(StoreScope, exp, cell)
	// and a hit is spliced in around the cell scheduler — no execution, no
	// monitor callbacks. Each simulated cell's result is appended
	// crash-safely before the cell counts as done, so rerunning an
	// interrupted run against the same store resumes it. A sweep holds the
	// store's claim on its scope and experiment while it runs, so a
	// concurrent identical sweep waits for it and simulates only what it
	// did not store.
	// Results are byte-identical with the store on, off, cold, or warm
	// (pinned by TestStoreMatchesUncached); fault injection is refused
	// because injected cells produce results a clean run must never see.
	Store *resultstore.Store
	// StoreScope is the content hash of the cell universe
	// (resultstore.Scope over config/budget/warmup/workloads). Required
	// when Store is set.
	StoreScope string
	// OnStoreHit, if non-nil, observes each cell served from the store
	// instead of simulated, with the record's provenance; shared reports
	// that the sweep first waited for another run's claim on it. Called
	// on Run's goroutine, before the sweep's workers start.
	OnStoreHit func(exp string, cell int, shared bool, prov resultstore.Provenance)
	// OnStoreFault, if non-nil, observes a store I/O failure the run
	// absorbed: a cell simulated successfully but its result could not
	// be persisted (disk full, failed fsync), so the cell completed
	// uncached instead of failing. The callback is how a server learns
	// to flip into compute-without-cache degraded mode. Called from
	// worker goroutines; must be concurrency-safe.
	OnStoreFault func(error)

	// expID is the experiment id being run, set by Run; it labels the
	// sweep's pprof profiles (see doCell), store keys, and injection
	// matches.
	expID string
	// holes, set by Run, collects the skip-policy failure descriptions the
	// runners' sweeps produce; Run copies it into Result.Holes.
	holes *[]string
}

// DefaultParams sizes runs for interactive use.
func DefaultParams() Params {
	return Params{InstBudget: 250_000}
}

func (p Params) workloads() ([]workloads.Workload, error) {
	names := p.Workloads
	if len(names) == 0 {
		names = workloads.SPECNames()
	}
	ws := make([]workloads.Workload, 0, len(names))
	for i, n := range names {
		w, ok := workloads.ByName(n)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown workload %q", n)
		}
		if slices.Contains(names[:i], n) {
			return nil, fmt.Errorf("experiments: workload %q is listed twice", n)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// Result is one reproduced artifact.
type Result struct {
	ID    string
	Title string
	// Tables renders the artifact (first table is the primary one).
	Tables []*stats.Table
	// Notes explain reading the rows and any modeling caveats.
	Notes []string
	// Values holds structured numbers keyed "metric/bench/config" for
	// programmatic assertions.
	Values map[string]float64
	// Holes describes cells that failed under -on-cell-error=skip. The
	// affected table entries render as "-", the structured values are
	// absent, and rasbench's CSV output carries these as "# hole:"
	// comments — missing data is always explicit, never silently zero.
	Holes []string
}

// Get returns a structured value.
func (r *Result) Get(metric, bench, cfg string) (float64, bool) {
	v, ok := r.Values[metric+"/"+bench+"/"+cfg]
	return v, ok
}

func (r *Result) put(metric, bench, cfg string, v float64) {
	if r.Values == nil {
		r.Values = map[string]float64{}
	}
	r.Values[metric+"/"+bench+"/"+cfg] = v
}

// String renders the whole result.
func (r *Result) String() string {
	out := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += t.String() + "\n"
	}
	for _, h := range r.Holes {
		out += "hole: " + h + "\n"
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

type runner func(Params) (*Result, error)

var runners = map[string]struct {
	title string
	fn    runner
}{
	"t1": {"Table 1 — baseline machine configuration", runT1},
	"t2": {"Table 2 — benchmark summary", runT2},
	"t3": {"Table 3 — return hit rate by repair mechanism", runT3},
	"t4": {"Table 4 — predicting returns from the BTB alone", runT4},
	"f1": {"Figure — return hit rate vs. stack depth", runF1},
	"f2": {"Figure — overflow/underflow vs. stack depth", runF2},
	"f3": {"Figure — speedup from stack repair (single path)", runF3},
	"f4": {"Figure — multipath stack organizations", runF4},
	"a1": {"Ablation — bounded shadow checkpoint slots", runA1},
	"a2": {"Extension — Jourdan-style self-checkpointing stack", runA2},
	"a3": {"Ablation — commit-time vs. speculative predictor-history update", runA3},
	"a4": {"Extension — target-cache indirect prediction vs. BTB vs. RAS", runA4},
	"a5": {"Ablation — generalized top-K checkpointing", runA5},
	"a6": {"Extension — Pentium-style valid-bits repair", runA6},
	"a7": {"Extension — SMT: shared vs. per-thread stacks (Hily & Seznec)", runA7},
	"a8": {"Ablation — repair benefit vs. direction-predictor quality", runA8},
	"f5": {"Figure — wrong-path stack activity (corruption characterization)", runF5},
}

// IDs lists experiment ids in presentation order.
func IDs() []string {
	ids := make([]string, 0, len(runners))
	for id := range runners {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns the experiment's display title.
func Title(id string) (string, bool) {
	r, ok := runners[id]
	return r.title, ok
}

// Run executes one experiment.
func Run(id string, p Params) (*Result, error) {
	r, ok := runners[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	if p.InstBudget == 0 {
		p.InstBudget = DefaultParams().InstBudget
	}
	if p.Store != nil && p.Inject != nil {
		return nil, fmt.Errorf("experiments: %s: the result store cannot be combined with fault injection: injected cells would poison the cache", id)
	}
	p.expID = id
	var holes []string
	p.holes = &holes
	res, err := r.fn(p)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	res.ID = id
	res.Title = r.title
	res.Holes = holes
	return res, nil
}

// simCell is one cell of a sweep: a workload under a machine
// configuration. Cells that differ only in their return stack may share
// one lockstep simulation (see runUnits); any other cell is its own.
type simCell struct {
	w   workloads.Workload
	cfg config.Config
}

// cellOut is one sweep cell's outcome: the simulation statistics (plus,
// for t2, the functional characterization) — or nothing, the hole a cell
// skipped under -on-cell-error=skip leaves behind. It is also the unit
// the result store records, so every field must survive a JSON round
// trip exactly; pipeline.Stats and core.Stats are all-integer
// structs, which encoding/json preserves digit-for-digit.
type cellOut struct {
	Sim     *pipeline.Stats  `json:"stats,omitempty"`
	Profile *workloadProfile `json:"profile,omitempty"`
}

// Stats returns the cell's simulation statistics — nil for a hole, which
// the renderers print as "-".
func (c cellOut) Stats() *pipeline.Stats { return c.Sim }

// workloadProfile is the functional characterization Table 2 derives from
// the emulator: the counters the table renders, extracted in-cell so a
// stored t2 cell splices in without re-running the machine.
type workloadProfile struct {
	Insts    uint64 `json:"insts"`
	Calls    uint64 `json:"calls"`
	Returns  uint64 `json:"returns"`
	SumDepth uint64 `json:"sum_depth"`
	MaxDepth int    `json:"max_depth"`
	P95Depth int    `json:"p95_depth"`
}

// storeLookups is lookup-before-simulate. It first claims the sweep —
// its scope and experiment — in the store (resultstore.Store.Claim), so a
// concurrent identical sweep waits until this one returns, then finds
// every cell it stored; the caller releases the claim when the sweep
// returns. Under the cell watchdog the wait is bounded by the cell
// timeout, and past it the sweep runs unclaimed: a cell both sweeps
// simulate is stored twice, harmlessly, since the latest record wins.
//
// It returns each cell's store key (nil without a store) and the cells
// the store already holds. Hits splice in around the scheduler — no
// execution, no monitor callbacks — which is what lets a warm rerun
// assert zero simulations. An undecodable payload (schema drift across
// versions) degrades to a miss; the re-simulated result re-Puts and heals
// the store, since the latest record for a key wins.
func (p Params) storeLookups(n int) (keys []string, spliced map[int]cellOut, release func(), err error) {
	spliced = map[int]cellOut{}
	if p.Store == nil {
		return nil, spliced, func() {}, nil
	}
	ctx := p.ctx()
	if p.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.CellTimeout)
		defer cancel()
	}
	release, waited, err := p.Store.Claim(ctx, p.StoreScope+"/"+p.expID)
	if err != nil {
		if err := p.ctx().Err(); err != nil {
			return nil, nil, nil, err
		}
		release = func() {} // the watchdog's bound ran out
	}
	keys = make([]string, n)
	for i := range keys {
		keys[i] = resultstore.CellKey(p.StoreScope, p.expID, i)
		raw, prov, ok := p.Store.Get(keys[i])
		if !ok {
			continue
		}
		var c cellOut
		if err := json.Unmarshal(raw, &c); err != nil {
			continue
		}
		spliced[i] = c
		if p.OnStoreHit != nil {
			p.OnStoreHit(p.expID, i, waited, prov)
		}
	}
	return keys, spliced, release, nil
}

// pendingCells lists, in order, the cells of [0, n) the store did not
// serve.
func pendingCells(n int, spliced map[int]cellOut) []int {
	pending := make([]int, 0, n-len(spliced))
	for i := 0; i < n; i++ {
		if _, ok := spliced[i]; !ok {
			pending = append(pending, i)
		}
	}
	return pending
}

// runSims simulates the cells across p.workers() workers and returns the
// cell outcomes in cell order. Each runner appends cells in exactly the
// order its serial assembly consumes them, so parallel output is
// byte-identical to serial.
//
// Each distinct workload's image is built (and predecoded) exactly once
// and shared read-only by every cell that runs it — machines copy code
// pages on write, so sharing is invisible to results. With a warm-up,
// each distinct warm state is likewise built once (see warmCells) and
// every cell starts from a copy of it. Each worker owns a
// pipeline.Recycler so consecutive cells on that worker reuse the big
// simulator allocations. Cells that differ only in their return stacks
// run as lockstep units; under per-cell instrumentation or the watchdog,
// every cell is a unit of one (see runUnits).
func runSims(p Params, cells []simCell) ([]cellOut, error) {
	if onSims != nil {
		onSims(cells)
	}
	return p.runUnits(cells, false)
}

// onSims, when set, sees the cells of every runSims call before they
// run: the tests that must cover every runner's configurations enumerate
// them through it.
var onSims func([]simCell)

// warmed is one cell's warm start: the shared state it copies, or the
// error building that state gave, which fails the cell as its own
// fast-forward would have.
type warmed struct {
	state *pipeline.WarmState
	err   error
}

// warmStatesBuilt counts the warm states warmCells builds, for the tests
// that pin how many fast-forwards a sweep runs.
var warmStatesBuilt atomic.Int64

// warmCells is the sweep's warm phase. It runs after the store lookups,
// over the pending cells only, so a warm rerun pays for no fast-forward it
// would discard. Cells whose workload and pipeline.WarmKey agree reach the
// same state after the fast-forward, so each distinct pair is
// fast-forwarded once, in parallel over pairs as buildImages builds
// images, on the worker's own Recycler and under the pprof labels
// experiment and phase=warm. The states live until runSims returns; they
// are never kept across experiments, where a memo would turn repeated
// sweeps into lookups. SMT cells get no state: FastForward refuses
// multi-thread machines, so they measure from reset.
func (p Params) warmCells(cells []simCell, pending []int, ims map[string]*program.Image, rec recyclers) ([]warmed, error) {
	type warmKey struct {
		workload string
		cfg      pipeline.WarmKey
	}
	index := map[warmKey]int{}
	var groups [][]int // the pending single-thread cells of each key
	for _, i := range pending {
		c := cells[i]
		if c.cfg.SMTThreads > 1 {
			continue
		}
		k := warmKey{c.w.Name, pipeline.WarmKeyOf(c.cfg)}
		j, ok := index[k]
		if !ok {
			j = len(groups)
			index[k] = j
			groups = append(groups, nil)
		}
		groups[j] = append(groups[j], i)
	}
	built, err := sweep.Map(p.ctx(), p.workers(), len(groups), func(ctx context.Context, worker, j int) (w warmed, _ error) {
		pprof.Do(ctx, pprof.Labels("experiment", p.expID, "phase", "warm"), func(context.Context) {
			c := cells[groups[j][0]]
			w.state, w.err = pipeline.Warm(c.cfg, ims[c.w.Name], p.Warmup, rec.of(worker))
		})
		warmStatesBuilt.Add(1)
		return w, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]warmed, len(cells))
	for j, g := range groups {
		for _, i := range g {
			out[i] = built[j]
		}
	}
	return out, nil
}

// workers resolves Params.Parallel to a concrete worker count.
func (p Params) workers() int { return sweep.Workers(p.Parallel) }

// ctx resolves Params.Ctx.
func (p Params) ctx() context.Context {
	if p.Ctx != nil {
		return p.Ctx
	}
	return context.Background()
}

// doCell runs one sweep cell's body under pprof labels naming the
// experiment and cell, so CPU/goroutine profiles of a sweep (rasbench
// -pprof, the live telemetry endpoint) attribute samples to cells.
func (p Params) doCell(ctx context.Context, cell int, fn func()) {
	p.doCells(ctx, []int{cell}, fn)
}

// doCells is doCell for a simulation carrying several cells: the cell
// label lists them, comma-separated.
func (p Params) doCells(ctx context.Context, cells []int, fn func()) {
	ids := make([]string, len(cells))
	for k, c := range cells {
		ids[k] = strconv.Itoa(c)
	}
	pprof.Do(ctx,
		pprof.Labels("experiment", p.expID, "cell", strings.Join(ids, ",")),
		func(context.Context) { fn() })
}

// buildImages is the sweep's pre-warm phase: it builds each distinct
// workload in ws exactly once, in parallel, and fully warms every image —
// the predecode plane (otherwise the first cells to touch a shared image
// convoy on its sync.Once while one goroutine decodes) and the plane's
// block-descriptor table (otherwise cold blocks are built lazily, a benign
// but contended duplicate scan when two workers enter the same block) —
// then freezes the shared workload arena so any remaining Build callers
// read a lock-free snapshot. By the time the sweep's workers start, every
// shared structure a cell touches is immutable and complete: the cell hot
// path performs no cross-worker writes at all.
//
// Returns the immutable images keyed by workload name. Cells of a sweep
// share these; nothing downstream may mutate them.
func buildImages(p Params, ws []workloads.Workload) (map[string]*program.Image, error) {
	var distinct []workloads.Workload
	index := map[string]int{}
	for _, w := range ws {
		if _, ok := index[w.Name]; !ok {
			index[w.Name] = len(distinct)
			distinct = append(distinct, w)
		}
	}
	built, err := sweep.Map(p.ctx(), p.workers(), len(distinct), func(_ context.Context, _, i int) (*program.Image, error) {
		im, err := buildFor(distinct[i], p)
		if err != nil {
			return nil, err
		}
		if pl := im.Predecode(); pl != nil {
			pl.PrewarmBlocks()
		}
		return im, nil
	})
	if err != nil {
		return nil, err
	}
	workloads.SharedArena().Freeze()
	ims := make(map[string]*program.Image, len(distinct))
	for name, i := range index {
		ims[name] = built[i]
	}
	return ims, nil
}

// recyclers is one lazily created pipeline.Recycler per sweep worker.
// of() is safe without locking because a worker runs its cells strictly
// sequentially and never touches another worker's slot.
type recyclers []*pipeline.Recycler

// newRecyclers sizes the pool to the worker count — except under a cell
// watchdog, where recycling is disabled entirely: a cell the watchdog
// abandoned may still be simulating when its worker starts the next cell,
// and two simulations must never share pooled storage.
func (p Params) newRecyclers() recyclers {
	if p.CellTimeout > 0 {
		return nil
	}
	return make(recyclers, p.workers())
}

func (r recyclers) of(worker int) *pipeline.Recycler {
	if worker < 0 || worker >= len(r) {
		return nil
	}
	if r[worker] == nil {
		r[worker] = pipeline.NewRecycler()
	}
	return r[worker]
}

// simulateCell runs one sweep cell on a prebuilt shared image (on every
// thread, under SMT): it starts from the warm state from, or from reset
// when from is nil, attaches the params' cycle sampler (tagged with the
// cell index), tracer and disturber, runs to the budget, and returns the
// Sim (with its bulk storage released back to the worker's pool — stats,
// machines and predictors remain readable).
func simulateCell(cell int, w workloads.Workload, im *program.Image, cfg config.Config, p Params, r *pipeline.Recycler, from *pipeline.WarmState) (*pipeline.Sim, error) {
	var sim *pipeline.Sim
	var err error
	if from != nil {
		sim, err = pipeline.NewFromWarm(cfg, im, from, r)
	} else {
		sim, err = pipeline.NewWithRecycler(cfg, im, r)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if p.Sample != nil {
		first := true
		sim.SetSampler(p.SampleEvery, func(sm pipeline.Sample) {
			if first {
				// The machine counters' first deltas count from reset, as
				// they do when a sampler is attached before FastForward,
				// also for a cell started from a warm state.
				first = false
				sm.NewPredecodeHits, sm.NewPredecodeFallbacks = sm.PredecodeHits, sm.PredecodeFallbacks
				sm.NewBlockHits, sm.NewBlockBuilds, sm.NewBlockInvalidations = sm.BlockHits, sm.BlockBuilds, sm.BlockInvalidations
			}
			p.Sample(cell, sm)
		})
	}
	finishTrace, err := p.attachTrace(sim, cell, cfg.RASEntries)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if every, addr, ok := p.Inject.Disturb(p.expID, cell); ok {
		sim.SetDisturber(every, addr)
	}
	if err := sim.Run(p.InstBudget); err != nil {
		finishTrace(false)
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if err := finishTrace(true); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	sim.Release(r)
	return sim, nil
}

func pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }
