package experiments

import (
	"context"
	"fmt"

	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/emu"
	"retstack/internal/pipeline"
	"retstack/internal/stats"
)

// runT1 prints the baseline machine description (the paper's Table 1).
func runT1(p Params) (*Result, error) {
	t := stats.NewTable("Baseline machine (cf. Alpha 21264)")
	t.AddRow(config.Baseline().Describe())
	return &Result{
		Tables: []*stats.Table{t},
		Notes: []string{
			"parameters follow the paper's Table 1 structure sizes: " +
				"4-wide, 64-entry RUU, 32-entry LSQ, hybrid 4K GAg + 1Kx10 PAg " +
				"+ 4K selector, decoupled taken-only BTB, 32-entry RAS",
		},
	}, nil
}

// runT2 characterizes the workloads (the paper's Table 2): dynamic
// instruction counts, call/return density, call depth, and the baseline
// conditional-branch misprediction rate.
func runT2(p Params) (*Result, error) {
	ws, err := p.workloads()
	if err != nil {
		return nil, err
	}
	// One cell per workload: the functional characterization run plus the
	// baseline timing simulation. Both run the same prebuilt image — the
	// functional machine copies code pages on write, so sharing is safe.
	ims, err := buildImages(p, ws)
	if err != nil {
		return nil, err
	}
	rec := p.newRecyclers()
	cells, err := runCells(p, len(ws), nil, func(ctx context.Context, worker, i int) (out cellOut, err error) {
		p.doCell(ctx, i, func() {
			w := ws[i]
			m := emu.NewMachine()
			m.Load(ims[w.Name])
			if _, err2 := m.Run(p.InstBudget); err2 != nil {
				err = fmt.Errorf("%s: %w", w.Name, err2)
				return
			}
			cfg := config.Baseline().WithPolicy(core.RepairTOSPointerAndContents)
			var from *pipeline.WarmState
			if p.Warmup > 0 {
				if from, err = pipeline.Warm(cfg, ims[w.Name], p.Warmup, rec.of(worker)); err != nil {
					err = fmt.Errorf("%s: %w", w.Name, err)
					return
				}
			}
			sim, err2 := simulateCell(i, w, ims[w.Name], cfg, p, rec.of(worker), from)
			if err2 != nil {
				err = err2
				return
			}
			out = cellOut{Sim: sim.Stats(), Profile: &workloadProfile{
				Insts:    m.InstCount,
				Calls:    m.Calls,
				Returns:  m.Returns,
				SumDepth: m.SumDepth,
				MaxDepth: m.MaxDepth,
				P95Depth: m.DepthHist.Percentile(95),
			}}
		})
		return out, err
	})
	if err != nil {
		return nil, err
	}

	res := &Result{}
	t := stats.NewTable("Workload summary ("+fmt.Sprintf("%d", p.InstBudget)+" insts simulated)",
		"bench", "insts", "calls%", "returns%", "mean depth", "p95 depth", "max depth", "cond mispred%")
	for i, w := range ws {
		m, st := cells[i].Profile, cells[i].Stats()
		if m == nil || st == nil {
			t.AddRow(w.Name, "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		meanDepth := 0.0
		if m.Calls > 0 {
			meanDepth = float64(m.SumDepth) / float64(m.Calls)
		}
		mr := st.CondMispredRate()

		t.AddRowf(
			"%s", w.Name,
			"%d", m.Insts,
			"%.2f", 100*stats.Ratio(m.Calls, m.Insts),
			"%.2f", 100*stats.Ratio(m.Returns, m.Insts),
			"%.1f", meanDepth,
			"%d", m.P95Depth,
			"%d", m.MaxDepth,
			"%.2f", 100*mr,
		)
		res.put("callpct", w.Name, "base", 100*stats.Ratio(m.Calls, m.Insts))
		res.put("maxdepth", w.Name, "base", float64(m.MaxDepth))
		res.put("p95depth", w.Name, "base", float64(m.P95Depth))
		res.put("mispred", w.Name, "base", mr)
	}
	res.Tables = []*stats.Table{t}
	res.Notes = []string{
		"clones match their namesakes' qualitative control-flow profile (DESIGN.md §6), not their code",
	}
	return res, nil
}

// runT3 measures return-prediction hit rates per repair mechanism (the
// paper's Table 3): no repair, TOS pointer, TOS pointer+contents (the
// proposal), and full-stack checkpointing (the upper bound).
func runT3(p Params) (*Result, error) {
	ws, err := p.workloads()
	if err != nil {
		return nil, err
	}
	pols := core.Policies()
	var cells []simCell
	for _, w := range ws {
		for _, pol := range pols {
			cells = append(cells, simCell{w, config.Baseline().WithPolicy(pol)})
		}
	}
	sims, err := runSims(p, cells)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	t := stats.NewTable("Return hit rate by repair mechanism (32-entry stack)",
		"bench", "none", "tos-ptr", "tos-ptr+contents", "full")
	next := 0
	for _, w := range ws {
		row := []string{w.Name}
		for _, pol := range pols {
			st := sims[next].Stats()
			next++
			if st == nil {
				row = append(row, "-")
				continue
			}
			hr := st.ReturnHitRate()
			res.put("hit", w.Name, pol.String(), hr)
			res.put("ipc", w.Name, pol.String(), st.IPC())
			row = append(row, pct(hr))
		}
		t.AddRow(row...)
	}
	res.Tables = []*stats.Table{t}
	res.Notes = []string{
		"expected shape: none < tos-ptr < tos-ptr+contents ~ full; the proposal reaches nearly 100%",
	}
	return res, nil
}

// runT4 predicts returns from the BTB alone (the paper's Table 4: return
// addresses are found in the BTB "only a little over half the time").
func runT4(p Params) (*Result, error) {
	ws, err := p.workloads()
	if err != nil {
		return nil, err
	}
	btbCfg := config.Baseline()
	btbCfg.ReturnPred = config.ReturnBTBOnly
	btbCfg.RASEntries = 0
	rasCfg := config.Baseline().WithPolicy(core.RepairTOSPointerAndContents)
	var cells []simCell
	for _, w := range ws {
		cells = append(cells, simCell{w, btbCfg}, simCell{w, rasCfg})
	}
	sims, err := runSims(p, cells)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	t := stats.NewTable("Returns predicted from the BTB alone vs. a repaired stack",
		"bench", "btb-only hit", "btb-only ipc", "ras hit", "ras ipc", "ras speedup")
	for i, w := range ws {
		bs, rs := sims[2*i].Stats(), sims[2*i+1].Stats()
		if bs == nil || rs == nil {
			t.AddRow(w.Name, "-", "-", "-", "-", "-")
			continue
		}
		speedup := stats.Speedup(bs.IPC(), rs.IPC())
		t.AddRowf(
			"%s", w.Name,
			"%s", pct(bs.ReturnHitRate()),
			"%.3f", bs.IPC(),
			"%s", pct(rs.ReturnHitRate()),
			"%.3f", rs.IPC(),
			"%+.1f%%", speedup,
		)
		res.put("hit", w.Name, "btb-only", bs.ReturnHitRate())
		res.put("hit", w.Name, "ras", rs.ReturnHitRate())
		res.put("ipc", w.Name, "btb-only", bs.IPC())
		res.put("ipc", w.Name, "ras", rs.IPC())
		res.put("speedup", w.Name, "ras-vs-btb", speedup)
	}
	res.Tables = []*stats.Table{t}
	res.Notes = []string{
		"paper: without a RAS, the BTB finds return targets only a little over half the time;",
		"a well-designed stack gains up to ~15% — call-dense clones gain most, ijpeg none",
	}
	return res, nil
}
