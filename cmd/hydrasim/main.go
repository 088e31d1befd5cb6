// Command hydrasim runs one workload through the cycle-level simulator and
// prints the full statistics block: IPC, branch and return prediction
// accuracy, return-address-stack events, and cache behavior.
//
// Usage:
//
//	hydrasim -bench go -repair tos-ptr+contents -insts 500000
//	hydrasim -bench vortex -returns btb-only
//	hydrasim -bench perl -paths 4 -mpstacks per-path
//	hydrasim -list
//
// Observability (all off by default; the stats block stays byte-identical):
//
//	hydrasim -bench go -progress                  # live cycle/commit line on stderr
//	hydrasim -bench go -metrics-out m.prom        # Prometheus exposition dump
//	hydrasim -bench go -events-out e.jsonl        # JSONL cycle-sample event log
//	hydrasim -bench go -manifest-out manifest.json
//	hydrasim -bench go -http :6060                # live /metrics + /debug/pprof
//	hydrasim -bench go -trace-out go.trace.jsonl  # full event trace + attribution (rastrace)
//
// Fault injection (dev; see README "Robustness"):
//
//	hydrasim -bench go -disturb 5000              # corrupt the RAS top entry every 5000 cycles
//	hydrasim -bench go -disturb 5000 -repair none # watch the corruption land as mispredictions
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"retstack"
	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/faultinject"
	"retstack/internal/pipeline"
	"retstack/internal/stats"
	"retstack/internal/telemetry"
	"retstack/internal/tracefile"
)

// obs bundles the opt-in observability sinks threaded through a run. A nil
// *obs (or any nil sink inside one) is fully inert.
type obs struct {
	reg         *telemetry.Registry
	pipe        *telemetry.PipelineMetrics
	events      *telemetry.EventLog
	progress    bool
	sampleEvery uint64
	budget      uint64
}

// attach wires the cycle sampler into a simulation: registry instruments,
// JSONL sample events, and the live stderr progress line. The sampler is
// read-only, so results are unchanged (pipeline.TestSamplerDoesNotPerturb).
func (o *obs) attach(sim *pipeline.Sim, bench string) {
	if o == nil || (o.pipe == nil && o.events == nil && !o.progress) {
		return
	}
	sim.SetSampler(o.sampleEvery, func(sm pipeline.Sample) {
		o.pipe.Observe(sm.RUUOccupancy, sm.FetchQLen, sm.LivePaths,
			sm.RASDepth, sm.CheckpointsLive, sm.NewSquashed, sm.NewRecoveries,
			sm.NewPredecodeHits, sm.NewPredecodeFallbacks,
			sm.NewOverlaySpills, sm.NewOverlayReuses,
			sm.NewBlockHits, sm.NewBlockBuilds, sm.NewBlockInvalidations)
		o.events.Emit("sample", map[string]any{
			"bench": bench, "cycle": sm.Cycle, "committed": sm.Committed,
			"ruu": sm.RUUOccupancy, "fetchq": sm.FetchQLen, "paths": sm.LivePaths,
			"ras_depth": sm.RASDepth, "checkpoints": sm.CheckpointsLive,
			"squashed": sm.Squashed, "recoveries": sm.Recoveries,
		})
		if o.progress {
			line := fmt.Sprintf("\rhydrasim %s: cycle %d, committed %d", bench, sm.Cycle, sm.Committed)
			if o.budget > 0 {
				line += fmt.Sprintf("/%d (%.0f%%)", o.budget, 100*float64(sm.Committed)/float64(o.budget))
			}
			fmt.Fprint(os.Stderr, line)
		}
	})
}

// finish publishes the run's final counters into the registry so the
// -metrics-out exposition carries end-of-run totals alongside the sampled
// distributions.
func (o *obs) finish(st *pipeline.Stats) {
	if o == nil {
		return
	}
	if o.progress {
		fmt.Fprintln(os.Stderr)
	}
	if o.reg != nil {
		o.reg.Counter("retstack_sim_cycles_total", "simulated cycles").Add(st.Cycles)
		o.reg.Counter("retstack_sim_committed_total", "committed instructions").Add(st.Committed)
		o.reg.Counter("retstack_sim_returns_total", "committed return instructions").Add(st.Returns)
		o.reg.Counter("retstack_sim_return_hits_total", "correctly predicted returns").Add(st.ReturnsCorrect)
		o.reg.Counter("retstack_sim_recoveries_total", "branch-misprediction recoveries").Add(st.Recoveries)
		o.reg.Counter("retstack_sim_squashed_total", "RUU entries squashed").Add(st.Squashed)
		o.reg.Counter("retstack_sim_ras_pushes_total", "return-address-stack pushes").Add(st.RAS.Pushes)
		o.reg.Counter("retstack_sim_ras_pops_total", "return-address-stack pops").Add(st.RAS.Pops)
		o.reg.Counter("retstack_sim_ras_restores_total", "return-address-stack checkpoint restores").Add(st.RAS.Restores)
	}
	o.events.Emit("run_done", map[string]any{
		"cycles": st.Cycles, "committed": st.Committed, "ipc": st.IPC(),
		"return_hit_rate": st.ReturnHitRate(), "recoveries": st.Recoveries,
	})
}

// run executes the simulation directly through the pipeline package so the
// tracers (live text, attribution), the telemetry sampler, and the
// dev-only RAS disturber can be attached.
func run(cfg retstack.Config, bench string, insts uint64, traceN int, attr *pipeline.Attributor, disturb, disturbSeed uint64, o *obs) (*pipeline.Stats, error) {
	w, ok := retstack.WorkloadByName(bench)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (use -list)", bench)
	}
	scale := 1
	if insts > 0 {
		scale = w.ScaleFor(insts * 2)
	}
	im, err := w.Build(scale)
	if err != nil {
		return nil, err
	}
	sim, err := pipeline.New(cfg, im)
	if err != nil {
		return nil, err
	}
	// Build the tracer list with concrete nil checks: converting a nil
	// *Attributor to the Tracer interface would defeat MultiTracer's
	// nil-dropping.
	var tracers []pipeline.Tracer
	if traceN > 0 {
		tracers = append(tracers, &pipeline.TextTracer{W: os.Stderr, MaxEvents: traceN})
	}
	if attr != nil {
		tracers = append(tracers, attr)
	}
	if tr := pipeline.MultiTracer(tracers...); tr != nil {
		sim.SetTracer(tr)
	}
	if disturb > 0 {
		sim.SetDisturber(disturb, faultinject.Addr(disturbSeed))
	}
	o.attach(sim, bench)
	if err := sim.Run(insts); err != nil {
		return nil, err
	}
	return sim.Stats(), nil
}

func main() {
	var (
		bench    = flag.String("bench", "go", "workload name (see -list)")
		insts    = flag.Uint64("insts", 500_000, "committed-instruction budget (0 = run to completion)")
		repair   = flag.String("repair", "tos-ptr+contents", "RAS repair: none | tos-ptr | tos-ptr+contents | full")
		rasSize  = flag.Int("ras", 32, "return-address-stack entries")
		rasKind  = flag.String("raskind", "circular", "stack implementation: circular | linked | topk")
		topK     = flag.Int("topk", 1, "checkpointed entries for -raskind topk")
		returns  = flag.String("returns", "ras", "return predictor: ras | btb-only | target-cache")
		indirect = flag.String("indirect", "btb", "indirect-jump predictor: btb | target-cache")
		shadow   = flag.Int("shadow", 0, "shadow checkpoint slots (0 = unbounded)")
		paths    = flag.Int("paths", 1, "maximum concurrent paths (1 = single-path)")
		mpstacks = flag.String("mpstacks", "per-path", "multipath stacks: unified | unified+repair | per-path")
		specHist = flag.Bool("spechistory", false, "speculative predictor-history update (21264-style)")
		traceN   = flag.Int("trace", 0, "write the first N pipeline events to stderr")
		disturb  = flag.Uint64("disturb", 0, "dev: corrupt the live RAS top entry every N cycles (0 = off); exercises the repair mechanisms")
		dseed    = flag.Uint64("disturb-seed", 1, "seed for the -disturb corruption address sequence")
		smt      = flag.String("smt", "", "comma-separated second..Nth workloads to co-schedule (SMT)")
		smtShare = flag.Bool("smtshared", false, "share one RAS among SMT threads")
		showCfg  = flag.Bool("config", false, "print the machine configuration and exit")
		list     = flag.Bool("list", false, "list available workloads and exit")

		metricsOut  = flag.String("metrics-out", "", "write the Prometheus text exposition to this file on exit")
		eventsOut   = flag.String("events-out", "", "write a JSONL event log (cycle samples + run records) to this file")
		manifestOut = flag.String("manifest-out", "", "write a JSON run manifest (resolved config, hash) to this file")
		progress    = flag.Bool("progress", false, "print a live cycle/commit progress line to stderr")
		httpAddr    = flag.String("http", "", "serve /metrics and /debug/pprof on this address (e.g. :6060) while the run lasts")
		sampleEvery = flag.Uint64("sample-every", pipeline.DefaultSampleEvery, "cycles between pipeline samples when telemetry is enabled")
		traceOut    = flag.String("trace-out", "", "write the full JSONL event trace with misprediction attribution to this file (inspect with rastrace)")
		traceBuf    = flag.Int("trace-buf", pipeline.DefaultTraceBuf, "causal ring capacity in events for -trace-out attribution")
	)
	flag.Parse()

	if *list {
		for _, w := range retstack.AllWorkloads() {
			fmt.Printf("%-16s %s\n", w.Name, w.Description)
		}
		return
	}

	cfg, err := buildConfig(*repair, *rasSize, *rasKind, *topK, *returns, *indirect, *shadow, *paths, *mpstacks)
	if err != nil {
		fatal(err)
	}
	cfg.SpecHistory = *specHist
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	if *showCfg {
		fmt.Println(cfg.Describe())
		return
	}

	// Telemetry sinks: all nil (and therefore free) unless requested.
	var o *obs
	if *metricsOut != "" || *eventsOut != "" || *httpAddr != "" || *progress {
		o = &obs{progress: *progress, sampleEvery: *sampleEvery, budget: *insts}
		if *metricsOut != "" || *httpAddr != "" {
			o.reg = telemetry.NewRegistry()
			o.pipe = telemetry.NewPipelineMetrics(o.reg)
		}
		if *eventsOut != "" {
			o.events, err = telemetry.CreateEventLog(*eventsOut, map[string]any{
				"tool":   "hydrasim",
				"run_id": fmt.Sprintf("%x", time.Now().UnixNano()),
			})
			if err != nil {
				fatal(err)
			}
			defer func() {
				if err := o.events.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "hydrasim: event log:", err)
				}
			}()
		}
		if *httpAddr != "" {
			bound, err := telemetry.Serve(*httpAddr, o.reg)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "hydrasim: serving /metrics and /debug/pprof on http://%s\n", bound)
		}
	}

	// The attribution tracer and its JSONL sink. Like -disturb (and the
	// sampler), these attach through run(), so they are single-context only.
	var attr *pipeline.Attributor
	var tw *tracefile.Writer
	var am *telemetry.AttribMetrics
	if *traceOut != "" {
		if *smt != "" {
			fatal(fmt.Errorf("-trace-out applies to single-context runs only (the SMT harness owns sim construction)"))
		}
		tw, err = tracefile.Create(*traceOut, tracefile.Header{Label: *bench, Buf: *traceBuf})
		if err != nil {
			fatal(err)
		}
		attr = pipeline.NewAttributor(cfg.RASEntries, *traceBuf, tw)
		if o != nil {
			am = telemetry.NewAttribMetrics(o.reg, "bench", *bench) // nil reg -> nil, no-op
			attr.OnRepairLatency = am.ObserveRepairLatency
			attr.OnSquashBurst = am.ObserveSquashBurst
		}
	}

	names := []string{*bench}
	if *smt != "" {
		names = append(names, strings.Split(*smt, ",")...)
	}
	man := telemetry.NewManifest("hydrasim", os.Args[1:])
	man.InstBudget = *insts
	man.Workloads = names
	man.Parallel = 1
	man.Config = cfg.Describe()
	man.ComputeHash()
	if o != nil {
		o.events.Emit("run_start", man.Fields())
	}

	var st *pipeline.Stats
	if *smt != "" && *disturb > 0 {
		fatal(fmt.Errorf("-disturb applies to single-context runs only (the SMT harness owns sim construction)"))
	}
	if *smt != "" {
		ws := make([]retstack.Workload, len(names))
		for i, n := range names {
			w, ok := retstack.WorkloadByName(n)
			if !ok {
				fatal(fmt.Errorf("unknown workload %q", n))
			}
			ws[i] = w
		}
		cfg.SMTThreads = len(ws)
		cfg.SMTSharedRAS = *smtShare
		if err := cfg.Validate(); err != nil {
			fatal(err)
		}
		// The SMT harness owns sim construction, so the cycle sampler does
		// not attach here; final counters and the manifest still record.
		res, _, err := retstack.RunSMT(cfg, ws, *insts)
		if err != nil {
			fatal(err)
		}
		st = res.Stats
		fmt.Printf("threads         %v (per-thread committed %v)\n", names, st.PerThreadCommitted)
		printStats(strings.Join(names, "+"), cfg, st)
	} else {
		st, err = run(cfg, *bench, *insts, *traceN, attr, *disturb, *dseed, o)
		if err != nil {
			fatal(err)
		}
		printStats(*bench, cfg, st)
		if *disturb > 0 {
			fmt.Printf("injected        RAS corruptions %d (every %d cycles, seed %d)\n",
				st.RAS.Corruptions, *disturb, *dseed)
		}
	}

	if attr != nil {
		attr.Finish()
		if err := tw.Close(); err != nil {
			fatal(fmt.Errorf("trace %s: %w", *traceOut, err))
		}
		// The attribution table renders on stderr; the stdout stats block
		// stays byte-identical to an untraced run.
		ast := attr.Stats()
		ast.WriteSummary(os.Stderr, *bench)
		am.AddEvents(ast.Events)
		for c := 0; c < pipeline.NumAttribCauses; c++ {
			am.AddCause(pipeline.AttribCause(c).String(), ast.Causes[c])
		}
		for s := 0; s < pipeline.NumStages; s++ {
			am.AddStage(pipeline.StageName(s), ast.StageCycles[s])
		}
		man.Trace = &telemetry.TraceRecord{
			Dir: filepath.Dir(*traceOut), Buf: *traceBuf,
			Files: []string{*traceOut}, Events: ast.Events, Attributed: ast.Attributed,
		}
	}

	o.finish(st)
	man.Finish()
	if *manifestOut != "" {
		if err := man.WriteFile(*manifestOut); err != nil {
			fatal(err)
		}
	}
	if *metricsOut != "" {
		if err := o.reg.DumpFile(*metricsOut); err != nil {
			fatal(err)
		}
	}
}

func buildConfig(repair string, rasSize int, rasKind string, topK int, returns, indirect string, shadow, paths int, mpstacks string) (retstack.Config, error) {
	cfg := retstack.Baseline()
	switch repair {
	case "none":
		cfg.RASPolicy = core.RepairNone
	case "tos-ptr":
		cfg.RASPolicy = core.RepairTOSPointer
	case "tos-ptr+contents":
		cfg.RASPolicy = core.RepairTOSPointerAndContents
	case "full":
		cfg.RASPolicy = core.RepairFullStack
	default:
		return cfg, fmt.Errorf("unknown -repair %q", repair)
	}
	cfg.RASEntries = rasSize
	switch rasKind {
	case "circular":
		cfg.RASKind = config.RASCircular
	case "linked":
		cfg.RASKind = config.RASLinked
	case "topk":
		cfg.RASKind = config.RASTopK
		cfg.RASTopK = topK
	default:
		return cfg, fmt.Errorf("unknown -raskind %q", rasKind)
	}
	switch returns {
	case "ras":
		cfg.ReturnPred = config.ReturnRAS
	case "btb-only":
		cfg.ReturnPred = config.ReturnBTBOnly
		cfg.RASEntries = 0
	case "target-cache":
		cfg.ReturnPred = config.ReturnTargetCache
		cfg.RASEntries = 0
	default:
		return cfg, fmt.Errorf("unknown -returns %q", returns)
	}
	switch indirect {
	case "btb":
		cfg.IndirectPred = config.IndirectBTB
	case "target-cache":
		cfg.IndirectPred = config.IndirectTargetCache
	default:
		return cfg, fmt.Errorf("unknown -indirect %q", indirect)
	}
	cfg.ShadowSlots = shadow
	cfg.MaxPaths = paths
	switch mpstacks {
	case "unified":
		cfg.MPStacks = config.MPUnified
	case "unified+repair":
		cfg.MPStacks = config.MPUnifiedRepair
	case "per-path":
		cfg.MPStacks = config.MPPerPath
	default:
		return cfg, fmt.Errorf("unknown -mpstacks %q", mpstacks)
	}
	return cfg, cfg.Validate()
}

func printStats(bench string, cfg retstack.Config, st *pipeline.Stats) {
	fmt.Printf("workload        %s\n", bench)
	fmt.Printf("cycles          %d\n", st.Cycles)
	fmt.Printf("committed       %d\n", st.Committed)
	fmt.Printf("IPC             %.3f\n", st.IPC())
	fmt.Printf("fetched         %d (squashed in RUU: %d)\n", st.Fetched, st.Squashed)
	fmt.Printf("cond branches   %d, mispredicted %.2f%%\n",
		st.CondBranches, 100*st.CondMispredRate())
	fmt.Printf("returns         %d, hit rate %.2f%% (from RAS: %d)\n",
		st.Returns, 100*st.ReturnHitRate(), st.ReturnsFromRAS)
	fmt.Printf("indirects       %d, correct %.2f%%\n",
		st.Indirects, 100*stats.Ratio(st.IndirectsCorrect, st.Indirects))
	fmt.Printf("recoveries      %d\n", st.Recoveries)
	fmt.Printf("RAS             pushes %d, pops %d, overflow %d, underflow %d, restores %d\n",
		st.RAS.Pushes, st.RAS.Pops, st.RAS.Overflows, st.RAS.Underflows, st.RAS.Restores)
	fmt.Printf("wrong-path RAS  pushes %d, pops %d\n", st.WrongPathPushes, st.WrongPathPops)
	if cfg.MaxPaths > 1 {
		fmt.Printf("multipath       forks %d, committed forked branches %d, paths squashed %d\n",
			st.Forks, st.ForkedBranches, st.PathsSquashed)
	}
	if cfg.ShadowSlots > 0 {
		fmt.Printf("shadow          checkpoints denied %d\n", st.CheckpointsDenied)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hydrasim:", err)
	os.Exit(1)
}
