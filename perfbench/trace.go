package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/experiments"
	"retstack/internal/pipeline"
	"retstack/internal/program"
	"retstack/internal/sweep"
	"retstack/internal/workloads"
)

// reconcileTolerance bounds the share of the traced replay's wall time that
// its layer spans may leave unattributed.
const reconcileTolerance = 0.05

// The profiled replay pass: sampling rate, the Sim.Run time it aims to
// sample, and the wall time it may take.
const (
	profileHz        = 500
	profileRunTarget = 1.5 // seconds
	profileWallCap   = 5 * time.Second
)

// perLayer lists the metrics a traced run prints, with their units. Every
// traced run prints all of them; README.md gives each one's meaning and
// the end-to-end metric it should move.
var perLayer = []metricDef{
	{"workloads.build_s", "s"}, {"workloads.images", "count"},
	{"program.predecode_s", "s"}, {"program.prewarm_blocks_s", "s"},

	{"emu.ffwd_s", "s"}, {"emu.ffwd_minsts_per_s", "Minst/s"},
	{"emu.block_hits", "count"}, {"emu.block_builds", "count"}, {"emu.predecode_fallbacks", "count"},

	{"pipeline.new_s", "s"}, {"pipeline.run_s", "s"}, {"pipeline.minsts_per_s", "Minst/s"},
	{"pipeline.ns_per_cycle", "ns"}, {"pipeline.cycles", "count"}, {"pipeline.committed", "count"},
	{"pipeline.useful_fetch_ratio", "ratio"}, {"pipeline.squashed", "count"}, {"pipeline.recoveries", "count"},
	{"pipeline.stage.fetch_frac", "ratio"}, {"pipeline.stage.dispatch_frac", "ratio"},
	{"pipeline.stage.issue_frac", "ratio"}, {"pipeline.stage.writeback_frac", "ratio"},
	{"pipeline.stage.commit_frac", "ratio"}, {"pipeline.stage.other_frac", "ratio"},
	{"pipeline.duffcopy_frac", "ratio"}, {"pipeline.stage.samples", "count"},

	{"core.ras_pushes", "count"}, {"core.ras_pops", "count"}, {"core.return_hit_rate", "ratio"},
	{"core.wrongpath_pushes", "count"},
	{"bpred.cond_branches", "count"}, {"bpred.cond_mispred_rate", "ratio"},
	{"cache.il1_accesses", "count"}, {"cache.dl1_accesses", "count"},
	{"cache.l2_accesses", "count"}, {"cache.l2_miss_rate", "ratio"},

	{"sweep.cells", "count"}, {"sweep.busy_s", "s"}, {"sweep.wait_s", "s"},
	{"sweep.utilization", "ratio"}, {"sweep.overhead_s", "s"},
	{"sweep.cell_p50_ms", "ms"}, {"sweep.cell_tail_ms", "ms"}, {"sweep.cell_tail_pct", "%"},
	{"sweep.straggler_ratio", "ratio"},
	{"experiments.run_s", "s"}, {"experiments.outside_sweep_s", "s"},

	{"resultstore.gets", "count"}, {"resultstore.get_s", "s"},
	{"resultstore.puts", "count"}, {"resultstore.put_s", "s"},
	{"resultstore.hit_ratio", "ratio"}, {"resultstore.shared", "count"},
	{"resultstore.bytes", "bytes"}, {"resultstore.open_s", "s"},
	{"campaignlog.records", "count"}, {"campaignlog.records_per_campaign", "count"},
	{"campaignlog.bytes", "bytes"}, {"campaignlog.open_s", "s"},
	{"http.submit_ms_p50", "ms"}, {"http.stream_ms_p50", "ms"}, {"http.tables_ms_p50", "ms"},
	{"http.errors", "count"},
	{"rasserve.server_wall_ms_p50", "ms"}, {"rasserve.queue_http_ms_p50", "ms"},

	{"campaign_samples", "count"}, {"campaign_tail_ms", "ms"}, {"campaign_tail_pct", "%"},
	{"warm_campaign_p50_ms", "ms"}, {"cold_campaign_p50_ms", "ms"},
	{"warm_campaigns", "count"}, {"cold_campaigns", "count"}, {"failed_frac", "ratio"},

	{"runtime.alloc_mb_per_cell", "MB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "ratio"}, {"trace.unattributed_frac", "ratio"},
}

// spanLog records the traced replay's layer spans in memory: one entry per
// call into a layer, with the layer's name, start and duration. A nil log
// records nothing.
type spanLog struct {
	spans []span
}

type span struct {
	name  string
	start time.Time
	dur   time.Duration
}

func (l *spanLog) add(name string, start time.Time, d time.Duration) {
	if l != nil {
		l.spans = append(l.spans, span{name, start, d})
	}
}

// total sums the durations of the spans named name ("" for all).
func (l *spanLog) total(name string) float64 {
	var t time.Duration
	for _, s := range l.spans {
		if name == "" || s.name == name {
			t += s.dur
		}
	}
	return t.Seconds()
}

// cellCounter is a sweep.Monitor that counts completed cells.
type cellCounter struct {
	mu    sync.Mutex
	cells int
}

func (c *cellCounter) CellStart(cell, worker int) {}

func (c *cellCounter) CellDone(cell, worker int, d time.Duration, err error) {
	c.mu.Lock()
	c.cells++
	c.mu.Unlock()
}

func (c *cellCounter) n() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cells
}

// sweepTracer records the experiments and sweep layers of traced sweeps:
// a span per experiments.Run call, a span per sweep cell (through the
// Monitor hook), and the engine's per-worker accounting (through
// OnWorkerStats).
type sweepTracer struct {
	mu      sync.Mutex
	exps    []*expRecord
	cellMs  []float64
	workers []sweep.WorkerStats
}

type expRecord struct {
	start, end             time.Time
	firstCell, lastCellEnd time.Time
}

// begin hooks p into the tracer and opens the experiment's span.
func (t *sweepTracer) begin(id string, p *experiments.Params) *expRecord {
	rec := &expRecord{}
	p.Monitor = &cellSpans{t: t, rec: rec}
	p.OnWorkerStats = func(ws []sweep.WorkerStats) {
		t.mu.Lock()
		t.workers = append(t.workers, ws...)
		t.mu.Unlock()
	}
	rec.start = time.Now()
	return rec
}

func (t *sweepTracer) end(rec *expRecord) {
	rec.end = time.Now()
	t.mu.Lock()
	t.exps = append(t.exps, rec)
	t.mu.Unlock()
}

// cellSpans is the Monitor one experiments.Run call reports cells to.
type cellSpans struct {
	t   *sweepTracer
	rec *expRecord
}

func (m *cellSpans) CellStart(cell, worker int) {}

func (m *cellSpans) CellDone(cell, worker int, d time.Duration, err error) {
	now := time.Now()
	m.t.mu.Lock()
	defer m.t.mu.Unlock()
	m.t.cellMs = append(m.t.cellMs, float64(d)/1e6)
	if start := now.Add(-d); m.rec.firstCell.IsZero() || start.Before(m.rec.firstCell) {
		m.rec.firstCell = start
	}
	if now.After(m.rec.lastCellEnd) {
		m.rec.lastCellEnd = now
	}
}

// report sets the sweep and experiments layer metrics.
func (t *sweepTracer) report(out *outcome) {
	var run, outside float64
	for _, e := range t.exps {
		d := e.end.Sub(e.start).Seconds()
		run += d
		if !e.firstCell.IsZero() {
			d -= e.lastCellEnd.Sub(e.firstCell).Seconds()
		}
		outside += d
	}
	var busy, wait float64
	for _, w := range t.workers {
		busy += w.Busy.Seconds()
		wait += w.Wait.Seconds()
	}
	out.set("experiments.run_s", run)
	out.set("experiments.outside_sweep_s", outside)
	out.set("sweep.cells", float64(len(t.cellMs)))
	out.set("sweep.busy_s", busy)
	out.set("sweep.wait_s", wait)
	out.set("sweep.utilization", ratio(busy, run*sweepWorkers))
	out.set("sweep.overhead_s", run*sweepWorkers-busy)
	p50 := median(t.cellMs)
	out.set("sweep.cell_p50_ms", p50)
	tv, tp, _ := tail(t.cellMs)
	out.set("sweep.cell_tail_ms", tv)
	out.set("sweep.cell_tail_pct", tp)
	out.set("sweep.straggler_ratio", ratio(sorted(t.cellMs)[len(t.cellMs)-1], p50))
}

// replay is the traced run's direct drive of Table 3's cells (the eight
// SPEC clones under each repair policy, config.Baseline().WithPolicy) one
// at a time through pipeline.NewWithRecycler, Sim.FastForward and Sim.Run,
// at a workload's budget and warmup. experiments.Run does not expose
// per-cell statistics, so the emu, pipeline, core, bpred and cache layers
// are read from this replay.
type replay struct {
	spans  spanLog
	wall   time.Duration
	values map[string]float64 // Table 3's Values, recomputed per cell
	agg    pipeline.Stats
	il1    uint64
	dl1    uint64
	l2     uint64
	l2miss uint64
	cells  int
}

func runReplay(ctx context.Context, ims map[string]*program.Image, insts, warmup uint64) (*replay, error) {
	r := &replay{values: map[string]float64{}}
	rec := pipeline.NewRecycler()
	start := time.Now()
	for _, w := range workloads.SPEC() {
		for _, pol := range core.Policies() {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := r.cell(ims[w.Name], w.Name, pol, insts, warmup, rec); err != nil {
				return nil, err
			}
		}
	}
	r.wall = time.Since(start)
	return r, nil
}

func (r *replay) cell(im *program.Image, bench string, pol core.RepairPolicy, insts, warmup uint64, rec *pipeline.Recycler) error {
	t0 := time.Now()
	sim, err := pipeline.NewWithRecycler(config.Baseline().WithPolicy(pol), im, rec)
	r.spans.add("pipeline.new", t0, time.Since(t0))
	if err != nil {
		return fmt.Errorf("%s: %w", bench, err)
	}
	t1 := time.Now()
	_, err = sim.FastForward(warmup)
	r.spans.add("emu.ffwd", t1, time.Since(t1))
	if err != nil {
		return fmt.Errorf("%s: %w", bench, err)
	}
	t2 := time.Now()
	err = sim.Run(insts)
	r.spans.add("pipeline.run", t2, time.Since(t2))
	if err != nil {
		return fmt.Errorf("%s: %w", bench, err)
	}
	t3 := time.Now()
	sim.Release(rec)
	r.spans.add("pipeline.release", t3, time.Since(t3))

	st := sim.Stats()
	r.values["hit/"+bench+"/"+pol.String()] = st.ReturnHitRate()
	r.values["ipc/"+bench+"/"+pol.String()] = st.IPC()
	a := &r.agg
	a.Cycles += st.Cycles
	a.Committed += st.Committed
	a.Fetched += st.Fetched
	a.Squashed += st.Squashed
	a.Recoveries += st.Recoveries
	a.FastForwarded += st.FastForwarded
	a.Returns += st.Returns
	a.ReturnsCorrect += st.ReturnsCorrect
	a.WrongPathPushes += st.WrongPathPushes
	a.CondBranches += st.CondBranches
	a.CondMispred += st.CondMispred
	a.RAS.Pushes += st.RAS.Pushes
	a.RAS.Pops += st.RAS.Pops
	a.BlockHits += st.BlockHits
	a.BlockBuilds += st.BlockBuilds
	a.PredecodeFallbacks += st.PredecodeFallbacks
	h := sim.Caches()
	r.il1 += h.L1I.Stats().Accesses
	r.dl1 += h.L1D.Stats().Accesses
	r.l2 += h.L2.Stats().Accesses
	r.l2miss += h.L2.Stats().Misses
	r.cells++
	return nil
}

// counts is the replay's simulated statistics: exact, so they must repeat
// on every pass and every run.
func (r *replay) counts() [12]uint64 {
	a := r.agg
	return [12]uint64{a.Cycles, a.Committed, a.Fetched, a.Squashed, a.Recoveries,
		a.RAS.Pushes, a.RAS.Pops, a.CondBranches, r.il1, r.dl1, r.l2, r.l2miss}
}

func (r *replay) report(out *outcome) {
	a := r.agg
	ffwd, run := r.spans.total("emu.ffwd"), r.spans.total("pipeline.run")
	out.set("emu.ffwd_s", ffwd)
	out.set("emu.ffwd_minsts_per_s", ratio(float64(a.FastForwarded), ffwd*1e6))
	out.set("emu.block_hits", float64(a.BlockHits))
	out.set("emu.block_builds", float64(a.BlockBuilds))
	out.set("emu.predecode_fallbacks", float64(a.PredecodeFallbacks))
	out.set("pipeline.new_s", r.spans.total("pipeline.new")+r.spans.total("pipeline.release"))
	out.set("pipeline.run_s", run)
	out.set("pipeline.minsts_per_s", ratio(float64(a.Committed), run*1e6))
	out.set("pipeline.ns_per_cycle", ratio(run*1e9, float64(a.Cycles)))
	out.set("pipeline.cycles", float64(a.Cycles))
	out.set("pipeline.committed", float64(a.Committed))
	out.set("pipeline.useful_fetch_ratio", ratio(float64(a.Committed), float64(a.Fetched)))
	out.set("pipeline.squashed", float64(a.Squashed))
	out.set("pipeline.recoveries", float64(a.Recoveries))
	out.set("core.ras_pushes", float64(a.RAS.Pushes))
	out.set("core.ras_pops", float64(a.RAS.Pops))
	out.set("core.return_hit_rate", ratio(float64(a.ReturnsCorrect), float64(a.Returns)))
	out.set("core.wrongpath_pushes", float64(a.WrongPathPushes))
	out.set("bpred.cond_branches", float64(a.CondBranches))
	out.set("bpred.cond_mispred_rate", ratio(float64(a.CondMispred), float64(a.CondBranches)))
	out.set("cache.il1_accesses", float64(r.il1))
	out.set("cache.dl1_accesses", float64(r.dl1))
	out.set("cache.l2_accesses", float64(r.l2))
	out.set("cache.l2_miss_rate", ratio(float64(r.l2miss), float64(r.l2)))
}

// traceLayers is the part of every traced run that does not depend on the
// workload: the image set-up and the Table 3 replay at the workload's
// budget and warmup, run twice — once with spans only, which gives the
// layer times, and once under the CPU profiler, which gives the pipeline
// stage split. It checks that both passes reproduce experiments.Run("t3")
// Values exactly, that their simulated counts agree, and that the spans
// account for the first pass's wall time within reconcileTolerance; a
// failed check counts as a failed operation.
func traceLayers(ctx context.Context, insts, warmup uint64, out *outcome) error {
	var setup spanLog
	t0 := time.Now()
	ims, err := buildImages(workloads.NewArena(), insts, warmup, &setup)
	if err != nil {
		return err
	}
	setupWall := time.Since(t0)
	out.set("workloads.build_s", setup.total("workloads.build"))
	out.set("workloads.images", float64(len(ims)))
	out.set("program.predecode_s", setup.total("program.predecode"))
	out.set("program.prewarm_blocks_s", setup.total("program.prewarm_blocks"))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, err := runReplay(ctx, ims, insts, warmup)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	plain.report(out)
	out.set("runtime.alloc_mb_per_cell", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/float64(plain.cells))
	out.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
	out.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)

	wall := setupWall + plain.wall
	attributed := setup.total("") + plain.spans.total("")
	unattributed := 1 - attributed/wall.Seconds()
	out.set("trace.unattributed_frac", unattributed)

	// The profiled pass repeats the replay until Sim.Run has had
	// profileRunTarget of CPU (or the pass has taken profileWallCap), at
	// profileHz, so the stage split rests on enough samples at any budget.
	// Setting the rate first is how runtime/pprof takes a non-default rate;
	// the runtime notes on stderr that StartCPUProfile could not reset it.
	var prof bytes.Buffer
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var profiled []*replay
	var profRun float64
	pt := time.Now()
	for len(profiled) == 0 || (profRun < profileRunTarget && time.Since(pt) < profileWallCap) {
		r, err := runReplay(ctx, ims, insts, warmup)
		if err != nil {
			pprof.StopCPUProfile()
			return err
		}
		profiled = append(profiled, r)
		profRun += r.spans.total("pipeline.run")
	}
	pprof.StopCPUProfile()
	perPass := time.Since(pt).Seconds() / float64(len(profiled))
	out.set("trace.overhead_frac", perPass/plain.wall.Seconds()-1)
	split, err := stageSplit(prof.Bytes())
	if err != nil {
		return err
	}
	for _, st := range stages {
		out.set("pipeline.stage."+st+"_frac", split.frac(st))
	}
	out.set("pipeline.duffcopy_frac", split.frac(duffcopy))
	out.set("pipeline.stage.samples", float64(split.samples))

	p := experiments.Params{InstBudget: insts, Warmup: warmup, Parallel: sweepWorkers, Ctx: ctx}
	res, err := experiments.Run("t3", p)
	if err != nil {
		return err
	}
	for _, r := range append([]*replay{plain}, profiled...) {
		out.Attempted++
		if !sameValues(res.Values, r.values) {
			out.Failed++
			logf("trace: the Table 3 replay does not reproduce experiments.Run(\"t3\") Values")
		}
		if r.counts() != plain.counts() {
			out.Failed++
			logf("trace: simulated counts differ between replay passes")
		}
	}
	out.Attempted++
	if unattributed < -reconcileTolerance || unattributed > reconcileTolerance {
		out.Failed++
		logf("trace: layer spans leave %.2f%% of the replay's wall time unattributed (tolerance %.0f%%)",
			100*unattributed, 100*reconcileTolerance)
	}
	return nil
}

func sameValues(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// traceSweep is a sweep workload's traced run: traced sweeps for the run
// length (experiments and sweep layers), the shared layer replay, and the
// serving probe for the layers sweeps bypass.
func traceSweep(ctx context.Context, s sweepSpec, ref sweepRef, rng *rand.Rand, o opts, out *outcome) error {
	if err := warmShared(s.insts, s.warmup); err != nil {
		return err
	}
	tr := &sweepTracer{}
	sw, err := runSweeps(ctx, s, ref, rng, o.run, tr, false)
	if err != nil {
		return err
	}
	out.Attempted, out.Failed = sw.attempted, sw.failed
	tr.report(out)
	if err := traceLayers(ctx, s.insts, s.warmup, out); err != nil {
		return err
	}
	return serveProbe(ctx, o, out)
}
