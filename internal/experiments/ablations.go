package experiments

import (
	"fmt"

	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/program"
	"retstack/internal/stats"
	"retstack/internal/workloads"
)

// runA1 bounds the shadow checkpoint storage. The paper notes real
// machines hold shadow state for only a few in-flight branches (4 in the
// MIPS R10000, 20 in the Alpha 21264); this ablation quantifies how many
// slots the proposal needs before it behaves like unbounded storage.
func runA1(p Params) (*Result, error) {
	ws, err := p.workloads()
	if err != nil {
		return nil, err
	}
	slots := []int{1, 4, 8, 20, 0} // 0 = unbounded
	hdr := []string{"bench"}
	for _, s := range slots {
		if s == 0 {
			hdr = append(hdr, "unbounded")
		} else {
			hdr = append(hdr, fmt.Sprintf("%d", s))
		}
	}
	var cells []simCell
	for _, w := range ws {
		for _, sl := range slots {
			cfg := config.Baseline().WithPolicy(core.RepairTOSPointerAndContents)
			cfg.ShadowSlots = sl
			cells = append(cells, simCell{w, cfg})
		}
	}
	sims, err := runSims(p, cells)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	t := stats.NewTable("Return hit rate vs. shadow checkpoint slots (tos-ptr+contents)", hdr...)
	next := 0
	for _, w := range ws {
		row := []string{w.Name}
		for range slots {
			st := sims[next].Stats()
			next++
			if st == nil {
				row = append(row, "-")
				continue
			}
			hr := st.ReturnHitRate()
			key := hdr[len(row)]
			res.put("hit", w.Name, key, hr)
			res.put("denied", w.Name, key, float64(st.CheckpointsDenied))
			row = append(row, pct(hr))
		}
		t.AddRow(row...)
	}
	res.Tables = []*stats.Table{t}
	res.Notes = []string{
		"R10000-style 4 slots already recovers most of the benefit; 20 (21264) is near-unbounded,",
		"consistent with the paper's observation that the shadow state is small",
	}
	return res, nil
}

// runA2 compares the Jourdan-style self-checkpointing linked stack
// against the paper's proposal at equal and doubled physical storage. The
// linked design needs only pointer checkpoints but more entries — the
// trade-off the paper's related-work discussion highlights.
func runA2(p Params) (*Result, error) {
	ws, err := p.workloads()
	if err != nil {
		return nil, err
	}
	physSizes := []int{32, 64, 128}
	// Per workload: the circular baseline, then the linked stack at each
	// physical size.
	var cells []simCell
	for _, w := range ws {
		cells = append(cells, simCell{w, config.Baseline().WithPolicy(core.RepairTOSPointerAndContents)})
		for _, phys := range physSizes {
			cfg := config.Baseline()
			cfg.RASKind = config.RASLinked
			cfg.RASEntries = phys
			cells = append(cells, simCell{w, cfg})
		}
	}
	sims, err := runSims(p, cells)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	t := stats.NewTable("Self-checkpointing (linked) stack vs. checkpointed circular stack",
		"bench", "circ32 ptr+contents", "linked32", "linked64", "linked128")
	next := 0
	for _, w := range ws {
		row := []string{w.Name}
		if st := sims[next].Stats(); st == nil {
			row = append(row, "-")
		} else {
			res.put("hit", w.Name, "circ32", st.ReturnHitRate())
			row = append(row, pct(st.ReturnHitRate()))
		}
		next++
		for _, phys := range physSizes {
			lst := sims[next].Stats()
			next++
			if lst == nil {
				row = append(row, "-")
				continue
			}
			key := fmt.Sprintf("linked%d", phys)
			res.put("hit", w.Name, key, lst.ReturnHitRate())
			row = append(row, pct(lst.ReturnHitRate()))
		}
		t.AddRow(row...)
	}
	res.Tables = []*stats.Table{t}
	res.Notes = []string{
		"the linked stack preserves popped entries, so pointer-only checkpoints suffice, but it",
		"needs more physical entries than the checkpointed circular stack for equal protection",
	}
	return res, nil
}

// runA3 contrasts the paper's commit-time predictor update with
// speculative history update at fetch (21264-style, repaired from the same
// per-branch shadow state as the return-address stack). Speculative
// history sharply cuts mispredictions on tight loops, which in turn
// shrinks wrong-path stack corruption — quantifying how much of the repair
// mechanisms' benefit scales with the misprediction rate.
func runA3(p Params) (*Result, error) {
	ws, err := p.workloads()
	if err != nil {
		return nil, err
	}
	base := config.Baseline().WithPolicy(core.RepairTOSPointerAndContents)
	specCfg := base
	specCfg.SpecHistory = true
	var cells []simCell
	for _, w := range ws {
		cells = append(cells, simCell{w, base}, simCell{w, specCfg})
	}
	sims, err := runSims(p, cells)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	t := stats.NewTable("Commit-time vs. speculative history (repair: tos-ptr+contents)",
		"bench", "commit mispred%", "spec mispred%", "commit ipc", "spec ipc",
		"commit ret-hit", "spec ret-hit")
	for i, w := range ws {
		cs, ss := sims[2*i].Stats(), sims[2*i+1].Stats()
		if cs == nil || ss == nil {
			t.AddRow(w.Name, "-", "-", "-", "-", "-", "-")
			continue
		}
		t.AddRowf(
			"%s", w.Name,
			"%.2f", 100*cs.CondMispredRate(),
			"%.2f", 100*ss.CondMispredRate(),
			"%.3f", cs.IPC(),
			"%.3f", ss.IPC(),
			"%s", pct(cs.ReturnHitRate()),
			"%s", pct(ss.ReturnHitRate()),
		)
		res.put("mispred", w.Name, "commit", cs.CondMispredRate())
		res.put("mispred", w.Name, "spec", ss.CondMispredRate())
		res.put("ipc", w.Name, "commit", cs.IPC())
		res.put("ipc", w.Name, "spec", ss.IPC())
		res.put("hit", w.Name, "commit", cs.ReturnHitRate())
		res.put("hit", w.Name, "spec", ss.ReturnHitRate())
	}
	res.Tables = []*stats.Table{t}
	res.Notes = []string{
		"the paper's simulator updates predictor state at commit; real machines shift history",
		"speculatively — fewer mispredictions mean fewer corruption events to repair",
	}
	return res, nil
}

// runA4 evaluates history-based indirect-target prediction (a Chang/Hao/
// Patt target cache), both for general indirect jumps — where it beats the
// BTB's single stale target — and as a return predictor, reproducing the
// paper's related-work claim that "these general mechanisms do not achieve
// the near-100% accuracies possible with a return-address stack."
func runA4(p Params) (*Result, error) {
	ws, err := p.workloads()
	if err != nil {
		return nil, err
	}
	btbCfg := config.Baseline()
	btbCfg.ReturnPred = config.ReturnBTBOnly
	btbCfg.RASEntries = 0
	tcCfg := config.Baseline()
	tcCfg.ReturnPred = config.ReturnTargetCache
	tcCfg.RASEntries = 0
	rasCfg := config.Baseline().WithPolicy(core.RepairTOSPointerAndContents)
	retCfgs := []struct {
		key string
		cfg config.Config
	}{
		{"ret-btb", btbCfg}, {"ret-tc", tcCfg}, {"ret-ras", rasCfg},
	}
	indCfgs := []struct {
		key  string
		kind config.IndirectPredictor
	}{
		{"ind-btb", config.IndirectBTB}, {"ind-tc", config.IndirectTargetCache},
	}
	// Per workload: three return predictors, then two indirect predictors.
	var cells []simCell
	for _, w := range ws {
		for _, c := range retCfgs {
			cells = append(cells, simCell{w, c.cfg})
		}
		for _, c := range indCfgs {
			cfg := config.Baseline().WithPolicy(core.RepairTOSPointerAndContents)
			cfg.IndirectPred = c.kind
			cells = append(cells, simCell{w, cfg})
		}
	}
	sims, err := runSims(p, cells)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	t := stats.NewTable("Target cache vs. BTB vs. RAS",
		"bench", "ret: btb-only", "ret: target-cache", "ret: ras",
		"ind: btb", "ind: target-cache")
	next := 0
	for _, w := range ws {
		row := []string{w.Name}

		// Returns by three predictors.
		for _, c := range retCfgs {
			st := sims[next].Stats()
			next++
			if st == nil {
				row = append(row, "-")
				continue
			}
			res.put("hit", w.Name, c.key, st.ReturnHitRate())
			row = append(row, pct(st.ReturnHitRate()))
		}

		// Indirect jumps by two predictors (RAS handles returns in both).
		for _, c := range indCfgs {
			st := sims[next].Stats()
			next++
			if st == nil || st.Indirects == 0 {
				row = append(row, "-")
				continue
			}
			hr := stats.Ratio(st.IndirectsCorrect, st.Indirects)
			res.put("indhit", w.Name, c.key, hr)
			row = append(row, pct(hr))
		}
		t.AddRow(row...)
	}
	res.Tables = []*stats.Table{t}
	res.Notes = []string{
		"history-indexed targets help polymorphic indirect jumps, but returns still need the",
		"stack: caller history in a shared table cannot match pairing returns with their calls",
	}
	return res, nil
}

// runA5 sweeps the generalized top-K checkpoint ("one can, of course, save
// an arbitrary number of return-address-stack entries this way; the
// extreme would be to checkpoint the entire return-address stack"):
// K = 0 is pointer-only, K = 1 the proposal, K = 32 full checkpointing.
func runA5(p Params) (*Result, error) {
	ws, err := p.workloads()
	if err != nil {
		return nil, err
	}
	ks := []int{0, 1, 2, 4, 8, 32}
	hdr := []string{"bench"}
	for _, k := range ks {
		hdr = append(hdr, fmt.Sprintf("K=%d", k))
	}
	var cells []simCell
	for _, w := range ws {
		for _, k := range ks {
			cfg := config.Baseline()
			cfg.RASKind = config.RASTopK
			cfg.RASTopK = k
			cells = append(cells, simCell{w, cfg})
		}
	}
	sims, err := runSims(p, cells)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	t := stats.NewTable("Return hit rate vs. checkpointed entries (32-entry stack)", hdr...)
	next := 0
	for _, w := range ws {
		row := []string{w.Name}
		for _, k := range ks {
			st := sims[next].Stats()
			next++
			if st == nil {
				row = append(row, "-")
				continue
			}
			hr := st.ReturnHitRate()
			res.put("hit", w.Name, fmt.Sprintf("K%d", k), hr)
			row = append(row, pct(hr))
		}
		t.AddRow(row...)
	}
	res.Tables = []*stats.Table{t}
	res.Notes = []string{
		"K=1 (the paper's proposal) captures nearly all of full checkpointing's benefit at",
		"a tiny fraction of the shadow storage — the paper's cost argument",
	}
	return res, nil
}

// runA6 evaluates the Pentium MMX/II-style valid-bits repair the paper's
// related work cites: branch tags identify wrong-path pushes (popped off
// at recovery) and corrupt entries (detected at pop, deferring to the
// BTB). No shadow checkpoints at all — protection lands between no repair
// and pointer repair.
func runA6(p Params) (*Result, error) {
	ws, err := p.workloads()
	if err != nil {
		return nil, err
	}
	cfgs := []struct {
		key string
		cfg config.Config
	}{
		{"none", config.Baseline().WithPolicy(core.RepairNone)},
		{"valid-bits", func() config.Config {
			c := config.Baseline()
			c.RASKind = config.RASValidBits
			return c
		}()},
		{"tos-ptr", config.Baseline().WithPolicy(core.RepairTOSPointer)},
		{"tos-ptr+contents", config.Baseline().WithPolicy(core.RepairTOSPointerAndContents)},
	}
	var cells []simCell
	for _, w := range ws {
		for _, c := range cfgs {
			cells = append(cells, simCell{w, c.cfg})
		}
	}
	sims, err := runSims(p, cells)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	t := stats.NewTable("Valid-bits (Pentium-style) repair vs. checkpoint repair",
		"bench", "none", "valid-bits", "tos-ptr", "tos-ptr+contents")
	next := 0
	for _, w := range ws {
		row := []string{w.Name}
		for _, c := range cfgs {
			st := sims[next].Stats()
			next++
			if st == nil {
				row = append(row, "-")
				continue
			}
			hr := st.ReturnHitRate()
			res.put("hit", w.Name, c.key, hr)
			res.put("ipc", w.Name, c.key, st.IPC())
			row = append(row, pct(hr))
		}
		t.AddRow(row...)
	}
	res.Tables = []*stats.Table{t}
	res.Notes = []string{
		"valid bits repair net-push wrong paths and detect (but cannot restore) popped or",
		"overwritten entries; expected ordering: none <= valid-bits <= tos-ptr <= proposal",
	}
	return res, nil
}

// runF5 characterizes the corruption mechanism itself: wrong-path stack
// activity and recovery frequency per 1K committed instructions — the
// quantities that determine how much repair matters for each workload.
func runF5(p Params) (*Result, error) {
	ws, err := p.workloads()
	if err != nil {
		return nil, err
	}
	var cells []simCell
	for _, w := range ws {
		cells = append(cells, simCell{w, config.Baseline().WithPolicy(core.RepairNone)})
	}
	sims, err := runSims(p, cells)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	t := stats.NewTable("Wrong-path RAS activity per 1K committed instructions (repair: none)",
		"bench", "wp pushes", "wp pops", "recoveries", "squashed insts", "ret hit")
	for i, w := range ws {
		st := sims[i].Stats()
		if st == nil {
			t.AddRow(w.Name, "-", "-", "-", "-", "-")
			continue
		}
		per1k := func(n uint64) float64 { return 1000 * stats.Ratio(n, st.Committed) }
		t.AddRowf(
			"%s", w.Name,
			"%.2f", per1k(st.WrongPathPushes),
			"%.2f", per1k(st.WrongPathPops),
			"%.2f", per1k(st.Recoveries),
			"%.1f", per1k(st.Squashed),
			"%s", pct(st.ReturnHitRate()),
		)
		res.put("wppush", w.Name, "none", per1k(st.WrongPathPushes))
		res.put("wppop", w.Name, "none", per1k(st.WrongPathPops))
		res.put("recov", w.Name, "none", per1k(st.Recoveries))
	}
	res.Tables = []*stats.Table{t}
	res.Notes = []string{
		"wrong-path pushes overwrite live entries; wrong-path pops expose and misalign them —",
		"workloads high on both and dense in returns benefit most from repair",
	}
	return res, nil
}

// runA7 reproduces the SMT result the paper cites from Hily & Seznec:
// "because calls and returns from different threads can be interleaved,
// they find per-thread stacks are a necessity." Each clone is co-scheduled
// with a copy of itself on a 2-thread SMT core, with one shared
// return-address stack vs. one per thread.
func runA7(p Params) (*Result, error) {
	ws, err := p.workloads()
	if err != nil {
		return nil, err
	}
	sharing := []bool{true, false}
	// One cell per (workload, sharing) pair, in assembly order; each
	// co-schedules the workload's image with itself on both threads.
	var cells []simCell
	for _, w := range ws {
		for _, shared := range sharing {
			cfg := config.Baseline().WithPolicy(core.RepairTOSPointerAndContents)
			cfg.SMTThreads = 2
			cfg.SMTSharedRAS = shared
			cells = append(cells, simCell{w, cfg})
		}
	}
	sims, err := runSims(p, cells)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	t := stats.NewTable("2-thread SMT: shared vs. per-thread return-address stacks",
		"bench", "shared hit", "shared ipc", "per-thread hit", "per-thread ipc")
	next := 0
	for _, w := range ws {
		row := []string{w.Name}
		var cells []string
		for _, sharedStack := range sharing {
			st := sims[next].Stats()
			next++
			if st == nil {
				cells = append(cells, "-", "-")
				continue
			}
			key := "per-thread"
			if sharedStack {
				key = "shared"
			}
			res.put("hit", w.Name, key, st.ReturnHitRate())
			res.put("ipc", w.Name, key, st.IPC())
			cells = append(cells, pct(st.ReturnHitRate()), fmt.Sprintf("%.3f", st.IPC()))
		}
		row = append(row, cells...)
		t.AddRow(row...)
	}
	res.Tables = []*stats.Table{t}
	res.Notes = []string{
		"interleaved pushes/pops from two threads corrupt one shared stack beyond what any",
		"checkpoint repair can fix; per-thread stacks restore near-single-thread accuracy",
	}
	return res, nil
}

// buildFor sizes one image for an experiment budget.
func buildFor(w workloads.Workload, p Params) (*program.Image, error) {
	return w.Build(w.ScaleFor((p.InstBudget + p.Warmup) * 2))
}

// runA8 varies direction-predictor quality (bimodal < gshare < hybrid)
// and measures the repair mechanism's value at each level: weaker
// predictors send fetch down more wrong paths, so the stack corrupts more
// often and repair buys more.
func runA8(p Params) (*Result, error) {
	ws, err := p.workloads()
	if err != nil {
		return nil, err
	}
	kinds := []config.DirPredKind{config.DirBimodal, config.DirGShare, config.DirHybrid}
	// Per workload, per predictor kind: the no-repair baseline then the
	// proposal.
	var cells []simCell
	for _, w := range ws {
		for _, kind := range kinds {
			base := config.Baseline().WithPolicy(core.RepairNone)
			base.DirPred = kind
			cells = append(cells, simCell{w, base}, simCell{w, base.WithPolicy(core.RepairTOSPointerAndContents)})
		}
	}
	sims, err := runSims(p, cells)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	t := stats.NewTable("Repair speedup vs. direction-predictor quality",
		"bench", "bimodal mispred%", "speedup", "gshare mispred%", "speedup",
		"hybrid mispred%", "speedup")
	next := 0
	for _, w := range ws {
		row := []string{w.Name}
		for _, kind := range kinds {
			none := sims[next].Stats()
			prop := sims[next+1].Stats()
			next += 2
			if none == nil || prop == nil {
				row = append(row, "-", "-")
				continue
			}
			sp := stats.Speedup(none.IPC(), prop.IPC())
			mr := prop.CondMispredRate()
			res.put("mispred", w.Name, kind.String(), mr)
			res.put("speedup", w.Name, kind.String(), sp)
			row = append(row, fmt.Sprintf("%.2f", 100*mr), fmt.Sprintf("%+.2f%%", sp))
		}
		t.AddRow(row...)
	}
	res.Tables = []*stats.Table{t}
	res.Notes = []string{
		"the repair mechanism's payoff tracks the misprediction rate: weaker predictors",
		"corrupt the stack more often, so the same repair hardware buys more performance",
	}
	return res, nil
}
