// The scalability experiment family (p1–p3): how the sweep engine's
// throughput, worker utilization, and determinism behave as -parallel
// sweeps from 1 to GOMAXPROCS.
//
// Unlike t1–t4/f1–f5/a1–a8, the p-family's numbers are wall-clock
// measurements — they change run to run and machine to machine — so the
// family deliberately lives outside the runners map: it is never part of
// `-exp all` and never cached in the result store
// (which would poison byte-identical CI diffs and content-addressed
// records with timing noise). rasbench dispatches it explicitly via
// -scale or -exp p1/p2/p3. The one deterministic artifact the family does
// produce — the per-level result fingerprint — is exactly what p3 gates
// on: tables must be byte-identical at every parallelism level.
package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"

	"retstack/internal/stats"
	"retstack/internal/sweep"
)

// ScalingTarget is the experiment the scaling family sweeps by default:
// the paper's main table, a (workload × repair-mechanism) product big
// enough to keep every worker busy.
const ScalingTarget = "t3"

// scalingFamily maps the family's ids to display titles, in presentation
// order. Kept separate from the runners map on purpose (see the package
// comment above).
var scalingIDs = []string{"p1", "p2", "p3"}

var scalingTitles = map[string]string{
	"p1": "Scalability — throughput and speedup vs -parallel",
	"p2": "Scalability — per-worker utilization and stragglers",
	"p3": "Scalability — determinism across parallelism levels",
}

// ScalingIDs lists the scaling family's experiment ids in presentation
// order. These ids are not in IDs(): their numbers are timing-dependent,
// so they are excluded from -exp all and the result store.
func ScalingIDs() []string {
	ids := make([]string, len(scalingIDs))
	copy(ids, scalingIDs)
	return ids
}

// IsScalingID reports whether id names a scaling-family experiment.
func IsScalingID(id string) bool {
	_, ok := scalingTitles[id]
	return ok
}

// ScalingTitle returns a scaling experiment's display title.
func ScalingTitle(id string) (string, bool) {
	t, ok := scalingTitles[id]
	return t, ok
}

// DefaultScalingLevels returns the full 1..GOMAXPROCS parallelism curve.
func DefaultScalingLevels() []int {
	n := runtime.GOMAXPROCS(0)
	levels := make([]int, n)
	for i := range levels {
		levels[i] = i + 1
	}
	return levels
}

// ScalingWorker is one worker's share of one level's sweep.
type ScalingWorker struct {
	Worker    int     `json:"worker"`
	Cells     int     `json:"cells"`
	Errs      int     `json:"errs,omitempty"`
	BusyMS    float64 `json:"busy_ms"`
	WaitMS    float64 `json:"wait_ms"`
	BusyShare float64 `json:"busy_share"` // busy / level wall clock
}

// ScalingLevel is one -parallel setting's measurement.
type ScalingLevel struct {
	// Parallel is the requested -parallel value; Workers is the effective
	// worker count after the sweep's workers-vs-cells clamp.
	Parallel int `json:"parallel"`
	Workers  int `json:"workers"`
	Cells    int `json:"cells"`

	WallMS      float64 `json:"wall_ms"`
	CellsPerSec float64 `json:"cells_per_sec"`
	// Speedup is serial wall / this level's wall (1.0 at the serial
	// level by construction; 0 when no serial level was measured).
	Speedup float64 `json:"speedup"`
	// Utilization is busy time / (workers × wall): 1.0 = no worker idled.
	Utilization float64 `json:"utilization"`

	// Per-cell latency quantiles (straggler tail shape).
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	// StragglerRatio is the slowest cell over the median cell — the
	// factor by which the worst cell gates the sweep's tail.
	StragglerRatio float64 `json:"straggler_ratio"`

	// Fingerprint is the sha256 of the level's rendered tables and
	// structured values; every level of a sweep must agree (the engine's
	// determinism contract).
	Fingerprint string `json:"fingerprint"`

	WorkerDetail []ScalingWorker `json:"worker_detail,omitempty"`
}

// ScalingReport is the machine-readable scalability measurement rasbench
// -scale emits (and benchjson -validate-scaling checks).
type ScalingReport struct {
	Target     string         `json:"target"` // experiment swept (e.g. t3)
	Procs      int            `json:"procs"`  // GOMAXPROCS at measurement
	InstBudget uint64         `json:"inst_budget"`
	Warmup     uint64         `json:"warmup,omitempty"`
	Levels     []ScalingLevel `json:"levels"`
	// Identical reports whether every level produced byte-identical
	// results (fingerprints all equal) — the determinism gate p3 and the
	// CI scaling-smoke job assert.
	Identical bool `json:"identical"`
}

// SerialWallMS returns the serial (parallel == 1) level's wall clock, or
// 0 when the curve has no serial level.
func (r *ScalingReport) SerialWallMS() float64 {
	for _, lv := range r.Levels {
		if lv.Parallel == 1 {
			return lv.WallMS
		}
	}
	return 0
}

// SpeedupAt returns the measured speedup at -parallel n (0 when the curve
// has no such level).
func (r *ScalingReport) SpeedupAt(n int) float64 {
	for _, lv := range r.Levels {
		if lv.Parallel == n {
			return lv.Speedup
		}
	}
	return 0
}

// fingerprintResult derives a level's deterministic identity: rendered
// tables, sorted structured values, and holes. Everything timing-dependent
// (the measurement itself) stays out, so equal fingerprints mean the
// parallel run produced the bytes a serial run would have.
func fingerprintResult(res *Result) string {
	h := sha256.New()
	for _, t := range res.Tables {
		fmt.Fprintln(h, t.String())
	}
	keys := make([]string, 0, len(res.Values))
	for k := range res.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%v\n", k, res.Values[k])
	}
	for _, hole := range res.Holes {
		fmt.Fprintf(h, "hole:%s\n", hole)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// MeasureScaling sweeps experiment target once per level in levels (nil
// selects DefaultScalingLevels), measuring wall clock, throughput,
// utilization, per-cell latency quantiles, per-worker busy/wait shares,
// and the per-level result fingerprint. p's store is ignored for the
// measured sweeps (cache hits would splice cells in without executing
// them, turning the measurement into fiction); its budget, warmup, and
// workload-set knobs apply.
func MeasureScaling(p Params, target string, levels []int) (*ScalingReport, error) {
	if IsScalingID(target) {
		return nil, fmt.Errorf("experiments: scaling target %q is itself a scaling id", target)
	}
	if _, ok := runners[target]; !ok {
		return nil, fmt.Errorf("experiments: unknown scaling target %q (have %v)", target, IDs())
	}
	if len(levels) == 0 {
		levels = DefaultScalingLevels()
	}
	rep := &ScalingReport{
		Target:     target,
		Procs:      runtime.GOMAXPROCS(0),
		InstBudget: p.InstBudget,
		Warmup:     p.Warmup,
	}
	if rep.InstBudget == 0 {
		rep.InstBudget = DefaultParams().InstBudget
	}
	for _, lv := range levels {
		if lv < 1 {
			return nil, fmt.Errorf("experiments: scaling level %d: must be >= 1", lv)
		}
		q := p
		q.Parallel = lv
		// Strip anything that would splice cells in without executing
		// them — a measured sweep must simulate every cell.
		q.Store, q.StoreScope = nil, ""
		timing := sweep.NewTiming()
		q.Monitor = sweep.Monitors(p.Monitor, timing)
		// An experiment may sweep more than once; merge worker stats by
		// worker index across sweeps.
		acc := map[int]*sweep.WorkerStats{}
		q.OnWorkerStats = func(ws []sweep.WorkerStats) {
			for _, w := range ws {
				a := acc[w.Worker]
				if a == nil {
					a = &sweep.WorkerStats{Worker: w.Worker}
					acc[w.Worker] = a
				}
				a.Started += w.Started
				a.Finished += w.Finished
				a.Errs += w.Errs
				a.Busy += w.Busy
				a.Wait += w.Wait
			}
		}
		start := time.Now()
		res, err := Run(target, q)
		wall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling level %d: %w", lv, err)
		}

		cells := len(timing.Cells())
		level := ScalingLevel{
			Parallel:    lv,
			Workers:     len(acc),
			Cells:       cells,
			WallMS:      float64(wall.Nanoseconds()) / 1e6,
			Fingerprint: fingerprintResult(res),
		}
		if s := wall.Seconds(); s > 0 {
			level.CellsPerSec = float64(cells) / s
		}
		workers := level.Workers
		if workers == 0 {
			workers = timing.Workers()
			level.Workers = workers
		}
		level.Utilization = timing.Utilization(workers)
		level.P50MS = float64(timing.Quantile(0.50).Nanoseconds()) / 1e6
		level.P95MS = float64(timing.Quantile(0.95).Nanoseconds()) / 1e6
		level.P99MS = float64(timing.Quantile(0.99).Nanoseconds()) / 1e6
		if med := timing.Median(); med > 0 {
			slowest := timing.Quantile(1)
			level.StragglerRatio = float64(slowest) / float64(med)
		}
		order := make([]int, 0, len(acc))
		for w := range acc {
			order = append(order, w)
		}
		sort.Ints(order)
		for _, w := range order {
			a := acc[w]
			sw := ScalingWorker{
				Worker: a.Worker,
				Cells:  a.Finished,
				Errs:   a.Errs,
				BusyMS: float64(a.Busy.Nanoseconds()) / 1e6,
				WaitMS: float64(a.Wait.Nanoseconds()) / 1e6,
			}
			if wall > 0 {
				sw.BusyShare = float64(a.Busy) / float64(wall)
			}
			level.WorkerDetail = append(level.WorkerDetail, sw)
		}
		rep.Levels = append(rep.Levels, level)
	}
	// Speedup is relative to the serial level when the curve has one,
	// else to the first (slowest-parallelism) level measured.
	base := rep.SerialWallMS()
	if base == 0 && len(rep.Levels) > 0 {
		base = rep.Levels[0].WallMS
	}
	rep.Identical = len(rep.Levels) > 0
	for i := range rep.Levels {
		if base > 0 && rep.Levels[i].WallMS > 0 {
			rep.Levels[i].Speedup = base / rep.Levels[i].WallMS
		}
		if rep.Levels[i].Fingerprint != rep.Levels[0].Fingerprint {
			rep.Identical = false
		}
	}
	return rep, nil
}

// RenderScaling shapes one scaling experiment's view of a measured report
// as a Result, so rasbench renders the p-family exactly like every other
// experiment. The same report serves all three ids — measure once, render
// three ways.
func RenderScaling(id string, rep *ScalingReport) (*Result, error) {
	title, ok := scalingTitles[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown scaling experiment %q (have %v)", id, scalingIDs)
	}
	res := &Result{ID: id, Title: title}
	switch id {
	case "p1":
		t := stats.NewTable(fmt.Sprintf("Sweep throughput vs -parallel (target %s, %d cells, GOMAXPROCS=%d)",
			rep.Target, cellsOf(rep), rep.Procs),
			"parallel", "workers", "wall ms", "cells/s", "speedup", "cells/s/worker")
		for _, lv := range rep.Levels {
			perWorker := 0.0
			if lv.Workers > 0 {
				perWorker = lv.CellsPerSec / float64(lv.Workers)
			}
			t.AddRow(fmt.Sprint(lv.Parallel), fmt.Sprint(lv.Workers),
				fmt.Sprintf("%.1f", lv.WallMS), fmt.Sprintf("%.2f", lv.CellsPerSec),
				fmt.Sprintf("%.2fx", lv.Speedup), fmt.Sprintf("%.2f", perWorker))
			res.put("wall_ms", "sweep", fmt.Sprint(lv.Parallel), lv.WallMS)
			res.put("cells_per_sec", "sweep", fmt.Sprint(lv.Parallel), lv.CellsPerSec)
			res.put("speedup", "sweep", fmt.Sprint(lv.Parallel), lv.Speedup)
		}
		res.Tables = []*stats.Table{t}
		res.Notes = []string{
			"speedup is serial wall clock over this level's wall clock; numbers are wall-clock measurements and vary run to run",
			"the family is excluded from -exp all and the result store for exactly that reason",
		}
	case "p2":
		t := stats.NewTable(fmt.Sprintf("Per-cell latency and straggler tail (target %s)", rep.Target),
			"parallel", "utilization", "p50 ms", "p95 ms", "p99 ms", "straggler ratio")
		for _, lv := range rep.Levels {
			t.AddRow(fmt.Sprint(lv.Parallel), fmt.Sprintf("%.2f", lv.Utilization),
				fmt.Sprintf("%.1f", lv.P50MS), fmt.Sprintf("%.1f", lv.P95MS),
				fmt.Sprintf("%.1f", lv.P99MS), fmt.Sprintf("%.1fx", lv.StragglerRatio))
			res.put("utilization", "sweep", fmt.Sprint(lv.Parallel), lv.Utilization)
			res.put("p99_ms", "sweep", fmt.Sprint(lv.Parallel), lv.P99MS)
		}
		res.Tables = []*stats.Table{t}
		if last := lastLevel(rep); last != nil && len(last.WorkerDetail) > 0 {
			wt := stats.NewTable(fmt.Sprintf("Per-worker accounting at -parallel %d", last.Parallel),
				"worker", "cells", "busy ms", "wait ms", "busy share")
			for _, w := range last.WorkerDetail {
				wt.AddRow(fmt.Sprint(w.Worker), fmt.Sprint(w.Cells),
					fmt.Sprintf("%.1f", w.BusyMS), fmt.Sprintf("%.1f", w.WaitMS),
					fmt.Sprintf("%.2f", w.BusyShare))
			}
			res.Tables = append(res.Tables, wt)
		}
		res.Notes = []string{
			"utilization is busy time over workers × wall clock; 1.00 means no worker ever idled",
			"straggler ratio is the slowest cell over the median cell",
		}
	case "p3":
		t := stats.NewTable(fmt.Sprintf("Result fingerprint by parallelism (target %s)", rep.Target),
			"parallel", "fingerprint", "identical")
		for _, lv := range rep.Levels {
			same := "yes"
			if lv.Fingerprint != rep.Levels[0].Fingerprint {
				same = "NO"
			}
			t.AddRow(fmt.Sprint(lv.Parallel), lv.Fingerprint[:16], same)
			res.put("identical", "sweep", fmt.Sprint(lv.Parallel), boolAs01(lv.Fingerprint == rep.Levels[0].Fingerprint))
		}
		res.Tables = []*stats.Table{t}
		verdict := "byte-identical at every parallelism level"
		if !rep.Identical {
			verdict = "DETERMINISM VIOLATION: levels disagree"
		}
		res.Notes = []string{
			"fingerprint is sha256 over the target's rendered tables, structured values, and holes (first 16 hex shown)",
			verdict,
		}
	}
	return res, nil
}

func cellsOf(rep *ScalingReport) int {
	if len(rep.Levels) == 0 {
		return 0
	}
	return rep.Levels[0].Cells
}

func lastLevel(rep *ScalingReport) *ScalingLevel {
	if len(rep.Levels) == 0 {
		return nil
	}
	return &rep.Levels[len(rep.Levels)-1]
}

func boolAs01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
