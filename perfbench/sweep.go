package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"retstack/internal/experiments"
	"retstack/internal/program"
	"retstack/internal/workloads"
)

// sweepWorkers is the sweep engine's worker count on every workload: the
// benchmark is sized for a 2-CPU machine.
const sweepWorkers = 2

// setupReps is how many times a run repeats its set-up phase before the
// first timed sweep; it repeats it once more after every sweep, and
// setup_s is the median of all repetitions. Spreading them over the run
// keeps one slow stretch of the host from deciding the median.
const setupReps = 5

// sweepSpec is one in-process sweep workload: an experiment set at a fixed
// instruction budget and fast-forward warmup, run through experiments.Run
// exactly as rasbench runs it (no store, no journal).
type sweepSpec struct {
	name   string
	exps   []string
	insts  uint64
	warmup uint64
}

var (
	sweepCold = sweepSpec{name: "sweep-cold", exps: experiments.IDs(), insts: 16_000}
	ffwdWarm  = sweepSpec{name: "ffwd-warm", exps: []string{"t3"}, insts: 20_000, warmup: 2_000_000}
)

func (s sweepSpec) params(ctx context.Context) experiments.Params {
	return experiments.Params{InstBudget: s.insts, Warmup: s.warmup, Parallel: sweepWorkers, Ctx: ctx}
}

// scaleFor is the workload scale experiments build images at for this
// budget (the harness sizes every image for twice budget plus warmup).
func scaleFor(w workloads.Workload, insts, warmup uint64) int {
	return w.ScaleFor((insts + warmup) * 2)
}

// buildImages assembles, predecodes and block-prewarms the eight SPEC
// clone images at the given budget in arena a, in the order the sweep
// harness does, recording each step in spans. It returns the images by
// workload name.
func buildImages(a *workloads.Arena, insts, warmup uint64, spans *spanLog) (map[string]*program.Image, error) {
	ims := map[string]*program.Image{}
	for _, w := range workloads.SPEC() {
		t0 := time.Now()
		im, err := a.Build(w, scaleFor(w, insts, warmup))
		spans.add("workloads.build", t0, time.Since(t0))
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		pl := im.Predecode()
		spans.add("program.predecode", t1, time.Since(t1))
		t2 := time.Now()
		if pl != nil {
			pl.PrewarmBlocks()
		}
		spans.add("program.prewarm_blocks", t2, time.Since(t2))
		ims[w.Name] = im
	}
	return ims, nil
}

// timeSetup runs the image pre-warm phase once in a fresh arena, so
// nothing is memoized, and returns its wall time.
func timeSetup(insts, warmup uint64) (time.Duration, error) {
	t0 := time.Now()
	if _, err := buildImages(workloads.NewArena(), insts, warmup, nil); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// warmShared pre-warms the process-wide arena the experiment harness
// builds through, so timed sweeps find every image already assembled, as
// every sweep after the first in a long-lived process (rasbench -exp all,
// rasserve) does.
func warmShared(insts, warmup uint64) error {
	if _, err := buildImages(workloads.SharedArena(), insts, warmup, nil); err != nil {
		return err
	}
	workloads.SharedArena().Freeze()
	return nil
}

func tableHash(res *experiments.Result) string {
	h := sha256.Sum256([]byte(res.String()))
	return hex.EncodeToString(h[:])
}

// sweepOutcome is what one timed sweep loop measured.
type sweepOutcome struct {
	walls     []float64 // seconds per full sweep of the experiment set
	raw       []float64 // the same, unscaled, when walls are scaled
	setups    []float64 // seconds per set-up repetition between sweeps
	attempted int       // experiments.Run calls
	failed    int       // errored or mismatching the reference tables
	cells     int       // cells per full sweep, from the reference record
}

// runSweeps runs the experiment set, in an order permuted by rng, again and
// again until d has elapsed (at least once). Every rendered table is
// checked against the reference hashes; tr, when non-nil, records the
// experiments and sweep layers. With between set (the untraced run), every
// sweep starts from a collected heap, the set-up phase is timed once after
// every sweep, and every experiment and set-up is scaled to nominal host
// speed (hostspeed.go).
func runSweeps(ctx context.Context, s sweepSpec, ref sweepRef, rng *rand.Rand, d time.Duration, tr *sweepTracer, between bool) (sweepOutcome, error) {
	var out sweepOutcome
	for _, id := range s.exps {
		out.cells += ref.Tables[id].Cells
	}
	var clock *hostClock
	if between {
		clock = newHostClock()
	}
	start := time.Now()
	for len(out.walls) == 0 || time.Since(start) < d {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		if between {
			// Start every sweep from a collected heap returned to the OS,
			// so the run's peak RSS is the peak of one sweep rather than
			// of garbage left over from earlier ones.
			debug.FreeOSMemory()
		}
		wall, raw := 0.0, 0.0
		for _, i := range rng.Perm(len(s.exps)) {
			id := s.exps[i]
			p := s.params(ctx)
			var rec *expRecord
			if tr != nil {
				rec = tr.begin(id, &p)
			}
			t0 := time.Now()
			res, err := experiments.Run(id, p)
			took := time.Since(t0)
			if rec != nil {
				tr.end(rec)
			}
			raw += took.Seconds()
			if clock != nil {
				wall += clock.scale(took)
			} else {
				wall += took.Seconds()
			}
			out.attempted++
			switch {
			case ctx.Err() != nil:
				return out, ctx.Err()
			case err != nil:
				out.failed++
				logf("%s: %v", id, err)
			case tableHash(res) != ref.Tables[id].SHA256:
				out.failed++
				logf("%s: rendered tables differ from the reference", id)
			}
		}
		out.walls, out.raw = append(out.walls, wall), append(out.raw, raw)
		if between {
			t, err := timeSetup(s.insts, s.warmup)
			if err != nil {
				return out, err
			}
			out.setups = append(out.setups, clock.scale(t))
			start = start.Add(t) // not part of the window
		}
	}
	return out, nil
}

// sweepBench runs a sweep workload: set-up measured setupReps times, then
// the timed loop for the run length (untraced), or the traced run.
func sweepBench(ctx context.Context, s sweepSpec, o opts) (*outcome, error) {
	ref, ok := loadRefs()[s.name]
	if !ok || ref.Insts != s.insts || ref.Warmup != s.warmup {
		return nil, fmt.Errorf("%s: no reference tables recorded for insts=%d warmup=%d", s.name, s.insts, s.warmup)
	}
	rng := rand.New(rand.NewSource(o.seed))
	out := newOutcome()
	if o.trace {
		return out, traceSweep(ctx, s, ref, rng, o, out)
	}
	var setups []float64
	clock := newHostClock()
	for i := 0; i < setupReps; i++ {
		t, err := timeSetup(s.insts, s.warmup)
		if err != nil {
			return nil, err
		}
		setups = append(setups, clock.scale(t))
	}
	if err := warmShared(s.insts, s.warmup); err != nil {
		return nil, err
	}
	sw, err := runSweeps(ctx, s, ref, rng, o.run, nil, true)
	if err != nil {
		return nil, err
	}
	// Throughput is work over the whole window, at nominal host speed.
	wall, total := median(sw.walls), sum(sw.walls)
	out.Attempted, out.Failed = sw.attempted, sw.failed
	out.set("setup_s", median(append(setups, sw.setups...)))
	out.set("cells_per_s", float64(sw.cells*len(sw.walls))/total)
	out.set("campaigns_per_s", float64(len(sw.walls))/total)
	out.set("campaign_p50_ms", 1000*wall)
	out.set("peak_rss_mb", peakRSSMB())
	logf("%s: %d sweeps of %d cells, median %.3fs at nominal host speed; scaled walls %.3f, raw walls %.3f",
		s.name, len(sw.walls), sw.cells, wall, sw.walls, sw.raw)
	return out, nil
}
