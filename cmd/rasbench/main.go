// Command rasbench regenerates the paper's tables and figures.
//
// Usage:
//
//	rasbench -list                 # show reproducible artifacts
//	rasbench -exp t3               # one table/figure
//	rasbench -exp all              # everything (EXPERIMENTS.md input)
//	rasbench -exp f1 -insts 500000 # bigger runs
//	rasbench -exp t3 -bench go,li  # restrict the workload set
//	rasbench -exp all -parallel 8  # fan simulations across 8 workers
//	rasbench -exp t3 -cpuprofile cpu.out -memprofile mem.out
//
// Observability (all off by default; table/CSV output stays byte-identical):
//
//	rasbench -exp all -progress                  # live sweep progress on stderr
//	rasbench -exp t3 -metrics-out m.prom         # Prometheus exposition dump
//	rasbench -exp t3 -events-out e.jsonl         # JSONL structured event log
//	rasbench -exp t3 -manifest-out manifest.json # reproducibility manifest
//	rasbench -exp all -http :6060                # live /metrics + /debug/pprof
//	rasbench -exp t3 -trace-out traces/          # per-cell attribution traces (rastrace)
//	rasbench -exp t3 -trace-out traces/ -trace-buf 8192
//
// Resilience (see README "Robustness"):
//
//	rasbench -exp all -on-cell-error=skip        # hole failed cells, keep going
//	rasbench -exp all -cell-timeout 5m           # per-cell watchdog
//	rasbench -exp t3 -inject panic:3             # dev: deterministic fault injection
//
// Caching (see README "Serving & caching"):
//
//	rasbench -exp all -store cache/              # content-addressed result store; a warm
//	                                             # rerun splices every cell without simulating
//	rasbench -exp all -store cache/ -store-max-bytes 67108864  # evict oldest segments on exit
//
// SIGINT/SIGTERM cancel the sweep cleanly: in-flight cells drain, telemetry
// sinks flush, the manifest records status "interrupted", and the exit code
// is 130. With -store, every finished cell is already fsynced to the store,
// so rerunning the same command resumes the run: stored cells splice in
// and only the rest simulate. (-inject runs cannot use the store, so they
// have no resume.)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"retstack"
	"retstack/internal/experiments"
	"retstack/internal/faultinject"
	"retstack/internal/pipeline"
	"retstack/internal/resultstore"
	"retstack/internal/sweep"
	"retstack/internal/telemetry"
	"retstack/internal/workloads"
)

// sinks collects every observability sink opened during the run. All three
// exit paths — normal completion, the SIGINT/SIGTERM drain, and fatal() —
// call flushAll, and the set guarantees each sink flushes exactly once no
// matter which path runs (or which wins a race).
var sinks = telemetry.NewSinkSet()

// flushAll flushes every registered sink, reporting (not swallowing) the
// failures; it returns false when any sink failed.
func flushAll() bool {
	ok := true
	for _, e := range sinks.Flush() {
		fmt.Fprintln(os.Stderr, "rasbench:", e.Error())
		ok = false
	}
	return ok
}

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id (t1-t4, f1-f5, a1-a8) or 'all'")
		insts      = flag.Uint64("insts", 0, "instruction budget per simulation (0 = default)")
		warmup     = flag.Uint64("warmup", 0, "fast-forward this many instructions before measuring")
		bench      = flag.String("bench", "", "comma-separated workload subset (default: all eight)")
		format     = flag.String("format", "table", "output format: table | csv (structured values)")
		list       = flag.Bool("list", false, "list experiments and exit")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "simulations to run concurrently (1 = serial; output is identical at any setting)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")

		metricsOut  = flag.String("metrics-out", "", "write the Prometheus text exposition to this file on exit")
		eventsOut   = flag.String("events-out", "", "write a JSONL structured event log to this file")
		manifestOut = flag.String("manifest-out", "", "write a JSON run manifest (resolved config, hash, per-cell timings) to this file")
		progress    = flag.Bool("progress", false, "print a live sweep progress line to stderr")
		httpAddr    = flag.String("http", "", "serve /metrics and /debug/pprof on this address (e.g. :6060) while the run lasts")
		sampleEvery = flag.Uint64("sample-every", pipeline.DefaultSampleEvery, "cycles between pipeline samples when metrics are enabled")
		traceOut    = flag.String("trace-out", "", "capture per-cell JSONL event traces with misprediction attribution into this directory (inspect with rastrace)")
		traceBuf    = flag.Int("trace-buf", pipeline.DefaultTraceBuf, "per-cell causal ring capacity in events for -trace-out attribution")

		onCellError = flag.String("on-cell-error", "abort", "failed-cell policy: abort | skip (hole the cell, keep sweeping)")
		cellTimeout = flag.Duration("cell-timeout", 0, "per-cell watchdog: abandon a cell producing no result within this duration (0 = off)")

		storePath     = flag.String("store", "", "content-addressed result store directory: cells already cached splice in without simulating, misses are persisted for the next run")
		storeMaxBytes = flag.Int64("store-max-bytes", 0, "after the run, evict oldest store segments until the store fits this many bytes (0 = never evict)")
		injectSpec    = flag.String("inject", "", "dev: deterministic fault plan, e.g. 'panic:3,hang:t3/7,corrupt:2' (a fault fires every time its cell runs)")
		injectSeed    = flag.Uint64("inject-seed", 1, "seed for the -inject corruption address sequence")
	)
	flag.Parse()

	// -parallel is validated up front rather than silently normalized
	// deep in the sweep engine: negatives are refused, and 0 maps to
	// GOMAXPROCS explicitly so the manifest and the stderr note agree on
	// the effective worker count.
	if *parallel < 0 {
		fatal(fmt.Errorf("-parallel %d: must be >= 0 (0 selects one worker per CPU)", *parallel))
	}
	if *parallel == 0 {
		*parallel = runtime.GOMAXPROCS(0)
		fmt.Fprintf(os.Stderr, "rasbench: -parallel 0: running %d workers (GOMAXPROCS)\n", *parallel)
	}

	if *list || *exp == "" {
		fmt.Println("reproducible artifacts:")
		for _, id := range retstack.ExperimentIDs() {
			title, _ := retstack.ExperimentTitle(id)
			fmt.Printf("  %-3s %s\n", id, title)
		}
		if *exp == "" && !*list {
			fmt.Println("\nuse -exp <id> or -exp all")
		}
		return
	}

	// The profiles are sinks like the telemetry below, so a failed or
	// interrupted run still leaves files pprof can read.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		sinks.Register("cpu profile", func() error {
			pprof.StopCPUProfile()
			return f.Close()
		})
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		sinks.Register("heap profile", func() error {
			runtime.GC() // flush unreachable objects so the profile shows live heap
			return errors.Join(pprof.WriteHeapProfile(f), f.Close())
		})
	}

	// SIGINT/SIGTERM cancel this context; the sweep engine drains in-flight
	// cells and returns context.Canceled, which the loop below turns into
	// an orderly "interrupted" shutdown instead of a mid-write kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	policy, err := sweep.ParseOnError(*onCellError)
	if err != nil {
		fatal(err)
	}
	plan, err := faultinject.Parse(*injectSpec, *injectSeed)
	if err != nil {
		fatal(err)
	}
	if *storePath != "" && plan != nil {
		fatal(fmt.Errorf("-store cannot be combined with -inject: injected cells would poison the cache"))
	}

	// Telemetry sinks: all nil (and therefore free) unless requested.
	var reg *telemetry.Registry
	if *metricsOut != "" || *httpAddr != "" {
		reg = telemetry.NewRegistry()
	}
	var events *telemetry.EventLog
	if *eventsOut != "" {
		events, err = telemetry.CreateEventLog(*eventsOut, map[string]any{
			"tool":   "rasbench",
			"run_id": fmt.Sprintf("%x", time.Now().UnixNano()),
		})
		if err != nil {
			fatal(err)
		}
		sinks.Register("event log", events.Close)
	}
	if *httpAddr != "" {
		bound, err := telemetry.Serve(*httpAddr, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rasbench: serving /metrics and /debug/pprof on http://%s\n", bound)
	}
	pipeMetrics := telemetry.NewPipelineMetrics(reg) // nil reg -> nil, no-op

	ids := []string{*exp}
	if *exp == "all" {
		ids = retstack.ExperimentIDs()
	}
	params := experiments.Params{
		InstBudget: *insts, Warmup: *warmup, Parallel: *parallel,
		Ctx: ctx, OnCellError: policy, CellTimeout: *cellTimeout, Inject: plan,
	}
	if *bench != "" {
		params.Workloads = strings.Split(*bench, ",")
	}

	man := telemetry.NewManifest("rasbench", os.Args[1:])
	man.InstBudget, man.Warmup = *insts, *warmup
	if man.InstBudget == 0 {
		man.InstBudget = experiments.DefaultParams().InstBudget
	}
	man.Workloads = params.Workloads
	man.Parallel = sweep.Workers(*parallel)
	man.ExperimentIDs = ids
	man.Config = retstack.Baseline().Describe()
	man.ComputeHash()

	// The result store: lookup-before-simulate keyed by a scope hash over
	// exactly the result-determining parameters (config, insts, warmup,
	// workload set). Unlike the manifest's config hash it excludes the
	// experiment list, so `-exp t3` warms the cells a later `-exp all`
	// reuses — and an interrupted run resumes by rerunning against it.
	var store *resultstore.Store
	if *storePath != "" {
		store, err = resultstore.Open(*storePath)
		if err != nil {
			fatal(err)
		}
		store.SetTool("rasbench")
		sinks.Register("store", store.Close)
		ws := params.Workloads
		if len(ws) == 0 {
			ws = workloads.SPECNames()
		}
		params.Store = store
		params.StoreScope = resultstore.Scope(man.Config, man.InstBudget, man.Warmup, ws)
		if sm := telemetry.NewStoreMetrics(reg); sm != nil { // nil reg -> nil, no-op
			store.SetObserver(resultstore.Observer{
				OnGet: sm.ObserveGet, OnPut: sm.ObservePut, OnShared: sm.ObserveShared,
			})
		}
	}
	// The metrics dump and the manifest flush on every exit path like the
	// sinks above. The manifest registers last: earlier sinks and the
	// per-experiment loop keep updating its fields (timings, trace record,
	// status) right up to the flush.
	if *metricsOut != "" {
		sinks.Register("metrics", func() error { return reg.DumpFile(*metricsOut) })
	}
	if *manifestOut != "" {
		sinks.Register("manifest", func() error {
			if man.Status == "" {
				man.Status = "failed"
			}
			if store != nil {
				s := store.Stats()
				man.Store = &telemetry.StoreRecord{
					Dir: store.Dir(), Scope: params.StoreScope,
					Hits: s.Hits, Misses: s.Misses, Puts: s.Puts, Shared: s.Shared,
				}
			}
			man.Finish()
			return man.WriteFile(*manifestOut)
		})
	}
	if *traceOut != "" {
		if err := os.MkdirAll(*traceOut, 0o755); err != nil {
			fatal(err)
		}
	}
	events.Emit("run_start", man.Fields())

	// With every telemetry flag off, nothing below attaches to the run:
	// no monitor, no sampler — the sweep executes exactly as before.
	observing := reg != nil || events != nil || *manifestOut != "" || *progress

	for _, id := range ids {
		start := time.Now()
		p := params
		var prog *sweep.Progress
		var obs *telemetry.SweepObserver
		var ws []sweep.WorkerStats // the sweep's cell record
		if observing {
			obs = telemetry.NewSweepObserver(reg, events, "exp", id)
			p.Monitor = obs
			if *progress {
				prog = sweep.NewProgress(os.Stderr, id)
				p.Monitor = sweep.Monitors(obs, prog)
			}
			p.OnWorkerStats = func(s []sweep.WorkerStats) { ws = s }
		}
		if reg != nil {
			p.SampleEvery = *sampleEvery
			p.Sample = func(cell int, sm pipeline.Sample) {
				pipeMetrics.Observe(sm.RUUOccupancy, sm.FetchQLen, sm.LivePaths,
					sm.RASDepth, sm.CheckpointsLive, sm.NewSquashed, sm.NewRecoveries,
					sm.NewPredecodeHits, sm.NewPredecodeFallbacks,
					sm.NewOverlaySpills, sm.NewOverlayReuses,
					sm.NewBlockHits, sm.NewBlockBuilds, sm.NewBlockInvalidations)
			}
		}
		var agg *traceAgg
		var am *telemetry.AttribMetrics
		if *traceOut != "" {
			am = telemetry.NewAttribMetrics(reg, "exp", id) // nil reg -> nil, no-op
			agg = &traceAgg{}
			p.Trace = &experiments.TraceParams{
				Dir: *traceOut, Buf: *traceBuf,
				OnRepairLatency: am.ObserveRepairLatency,
				OnSquashBurst:   am.ObserveSquashBurst,
				OnCell:          agg.cell,
			}
		}
		events.Emit("experiment_start", map[string]any{"exp": id})

		res, err := experiments.Run(id, p)
		if prog != nil {
			prog.Finish()
		}
		// The sweep has joined on every path out of Run: publish its cell
		// record before anything reads or flushes the registry.
		obs.Publish(ws)
		if err != nil {
			if ctx.Err() != nil {
				// A signal canceled the sweep mid-experiment. Flush what we
				// have — stored cells are already fsynced, and cells that
				// finished before the cancel have already closed their trace
				// files — and exit with the conventional SIGINT code. os.Exit
				// skips defers, so the sink set flushes explicitly here.
				stop()
				events.Emit("run_interrupted", map[string]any{
					"exp": id, "seconds": time.Since(man.Start).Seconds(),
				})
				man.Status = "interrupted"
				if agg != nil {
					publishTrace(am, man, *traceOut, *traceBuf, agg)
				}
				flushAll()
				fmt.Fprintln(os.Stderr, "rasbench: interrupted")
				if store != nil {
					fmt.Fprintf(os.Stderr, "rasbench: completed cells are in the store; rerun with -store %s to continue\n", store.Dir())
				}
				os.Exit(130)
			}
			events.Emit("experiment_error", map[string]any{"exp": id, "error": err.Error()})
			fatal(err)
		}

		elapsed := time.Since(start)
		if observing {
			cells := sweep.Cells(ws)
			man.Experiments = append(man.Experiments, experimentRecord(id, elapsed, cells))
			events.Emit("experiment_done", map[string]any{
				"exp": id, "seconds": elapsed.Seconds(), "cells": len(cells),
				"holes": len(res.Holes),
			})
			if *progress {
				reportSweep(os.Stderr, id, elapsed, ws)
			}
		}
		if agg != nil {
			// The attribution table renders on stderr: stdout stays
			// byte-identical to an untraced run.
			st := publishTrace(am, man, *traceOut, *traceBuf, agg)
			st.WriteSummary(os.Stderr, id)
		}

		switch *format {
		case "csv":
			if err := printCSV(os.Stdout, res); err != nil {
				fatal(err)
			}
		default:
			fmt.Print(res)
			fmt.Fprintf(os.Stderr, "(%.1fs)\n\n", elapsed.Seconds())
		}
	}

	if store != nil {
		s := store.Stats()
		fmt.Fprintf(os.Stderr, "rasbench: store: %d hits, %d misses, %d puts, %d shared (%s)",
			s.Hits, s.Misses, s.Puts, s.Shared, store.Dir())
		if s.DroppedBytes > 0 {
			fmt.Fprintf(os.Stderr, " (%d torn bytes dropped at open)", s.DroppedBytes)
		}
		fmt.Fprintln(os.Stderr)
		if *storeMaxBytes > 0 {
			evicted, err := store.Trim(*storeMaxBytes)
			if err != nil {
				fatal(err)
			}
			if evicted > 0 {
				fmt.Fprintf(os.Stderr, "rasbench: store: evicted %d oldest segment(s) to fit %d bytes\n",
					evicted, *storeMaxBytes)
			}
		}
	}
	man.Status = "completed"
	man.Finish()
	events.Emit("run_done", map[string]any{"seconds": man.WallSeconds})
	if !flushAll() {
		os.Exit(1)
	}
}

// traceAgg accumulates per-cell attribution results for one experiment.
// OnCell fires from sweep workers, so it locks.
type traceAgg struct {
	mu    sync.Mutex
	stats pipeline.AttribStats
	files []string
}

func (a *traceAgg) cell(exp string, cell int, file string, st pipeline.AttribStats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Merge(&st)
	if file != "" {
		a.files = append(a.files, file)
	}
}

// publishTrace pushes one experiment's aggregated attribution into the
// registry's retstack_attrib_* counters and folds it into the manifest's
// trace record, returning the aggregate for rendering. Files sort so the
// manifest is deterministic at any worker count.
func publishTrace(am *telemetry.AttribMetrics, man *telemetry.Manifest,
	dir string, buf int, agg *traceAgg) pipeline.AttribStats {
	agg.mu.Lock()
	st := agg.stats
	files := append([]string(nil), agg.files...)
	agg.mu.Unlock()
	sort.Strings(files)

	am.AddEvents(st.Events)
	for c := 0; c < pipeline.NumAttribCauses; c++ {
		am.AddCause(pipeline.AttribCause(c).String(), st.Causes[c])
	}
	for s := 0; s < pipeline.NumStages; s++ {
		am.AddStage(pipeline.StageName(s), st.StageCycles[s])
	}
	if man.Trace == nil {
		man.Trace = &telemetry.TraceRecord{Dir: dir, Buf: buf}
	}
	man.Trace.Files = append(man.Trace.Files, files...)
	man.Trace.Events += st.Events
	man.Trace.Attributed += st.Attributed
	return st
}

// experimentRecord converts one experiment's cell records into manifest
// form.
func experimentRecord(id string, elapsed time.Duration, cells []sweep.CellTiming) telemetry.ExperimentRecord {
	title, _ := retstack.ExperimentTitle(id)
	rec := telemetry.ExperimentRecord{ID: id, Title: title, WallSeconds: elapsed.Seconds()}
	for _, c := range cells {
		rec.Cells = append(rec.Cells, telemetry.CellRecord{
			Cell: c.Cell, Worker: c.Worker, Seconds: c.Elapsed.Seconds(), Error: c.Err,
		})
	}
	return rec
}

// reportSweep prints the post-sweep utilization/straggler summary that
// -progress promises: how busy the pool stayed (sweep.Utilization) and
// which cells gated the wall clock, in milliseconds.
func reportSweep(w io.Writer, id string, wall time.Duration, ws []sweep.WorkerStats) {
	cells := sweep.Cells(ws)
	if len(cells) == 0 {
		return
	}
	line := fmt.Sprintf("sweep %s: %d cells, utilization %.0f%%, median cell %.1fms",
		id, len(cells), 100*sweep.Utilization(ws, wall), ms(sweep.Median(cells)))
	if stragglers := sweep.Stragglers(cells, 3); len(stragglers) != 0 {
		s := stragglers[0]
		line += fmt.Sprintf("; straggler cell %d (%.1fms on worker %d)", s.Cell, ms(s.Elapsed), s.Worker)
	}
	fmt.Fprintln(w, line)
}

// ms converts d to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// printCSV dumps the experiment's structured values as
// experiment,metric,bench,config,value rows (stable order for diffing).
// Skip-policy holes are emitted as "# hole:" comment rows first, so a
// consumer of the CSV can tell a missing series from a zero one. Keys that
// do not split into metric/bench/config are reported as errors rather than
// panicking mid-dump.
func printCSV(w io.Writer, res *experiments.Result) error {
	for _, h := range res.Holes {
		fmt.Fprintf(w, "# hole: %s: %s\n", res.ID, h)
	}
	keys := make([]string, 0, len(res.Values))
	for k := range res.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts := strings.SplitN(k, "/", 3)
		if len(parts) != 3 {
			return fmt.Errorf("%s: malformed value key %q (want metric/bench/config)", res.ID, k)
		}
		fmt.Fprintf(w, "%s,%s,%s,%s,%g\n", res.ID, parts[0], parts[1], parts[2], res.Values[k])
	}
	return nil
}

// fatal reports the error, flushes whatever sinks the run opened before it
// failed (the manifest records status "failed"), and exits. os.Exit skips
// deferred calls, which is exactly why the sinks live in a SinkSet rather
// than in defers.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rasbench:", err)
	flushAll()
	os.Exit(1)
}
