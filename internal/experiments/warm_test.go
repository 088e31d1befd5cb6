package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/pipeline"
	"retstack/internal/resultstore"
	"retstack/internal/sweep"
	"retstack/internal/workloads"
)

// sweptConfigs returns every distinct single-thread cell configuration
// the runners sweep, enumerated by running each experiment once at a
// token budget, so a new experiment is covered without being listed.
func sweptConfigs(t *testing.T) []config.Config {
	var cfgs []config.Config
	seen := map[config.Config]bool{}
	onSims = func(cells []simCell) {
		for _, c := range cells {
			if c.cfg.SMTThreads <= 1 && !seen[c.cfg] {
				seen[c.cfg] = true
				cfgs = append(cfgs, c.cfg)
			}
		}
	}
	defer func() { onSims = nil }()
	for _, id := range IDs() {
		if _, err := Run(id, Params{InstBudget: 500, Workloads: []string{"li"}, Parallel: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return cfgs
}

// TestWarmCloneMatchesFastForward holds the warm phase to its reference:
// for every single-thread configuration any experiment sweeps, a cell
// started from a shared warm state (pipeline.Warm, then simulateCell) must
// end in exactly the state of a Sim that fast-forwarded itself
// (FastForward, then Run) — statistics, registers, output, every cache
// level, the BTB, the predictors, the samples a sampler saw, and finally
// every field of the Sim — and leave the warm state as it found it. The
// configurations must span every
// direction-predictor kind, speculative history and every stack kind, and
// none may fall back to its own fast-forward.
func TestWarmCloneMatchesFastForward(t *testing.T) {
	cfgs := sweptConfigs(t)
	covered := map[string]bool{}
	for _, c := range cfgs {
		covered[c.DirPred.String()] = true
		covered[c.RASKind.String()] = true
		covered["spec-history"] = covered["spec-history"] || c.SpecHistory
	}
	for _, want := range []string{"hybrid", "gshare", "bimodal", "circular", "linked", "top-k", "valid-bits", "spec-history"} {
		if !covered[want] {
			t.Errorf("no swept configuration uses %s", want)
		}
	}

	p := Params{InstBudget: 3_000, Warmup: 10_000, SampleEvery: 256}
	for _, name := range []string{"go", "li"} {
		w, _ := workloads.ByName(name)
		im, err := buildFor(w, p)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			t.Run(fmt.Sprintf("%s/%d", name, i), func(t *testing.T) {
				var refSamples, cloneSamples []pipeline.Sample
				ref, err := pipeline.New(cfg, im)
				if err != nil {
					t.Fatal(err)
				}
				ref.SetSampler(p.SampleEvery, func(sm pipeline.Sample) { refSamples = append(refSamples, sm) })
				if _, err := ref.FastForward(p.Warmup); err != nil {
					t.Fatal(err)
				}
				if err := ref.Run(p.InstBudget); err != nil {
					t.Fatal(err)
				}

				ws, err := pipeline.Warm(cfg, im, p.Warmup, nil)
				if err != nil {
					t.Fatal(err)
				}
				q := p
				q.Sample = func(_ int, sm pipeline.Sample) { cloneSamples = append(cloneSamples, sm) }
				clone, err := simulateCell(0, w, im, cfg, q, nil, ws)
				if err != nil {
					t.Fatal(err)
				}
				// Drop the sampler closures so the Sims compare whole.
				ref.SetSampler(0, nil)
				clone.SetSampler(0, nil)
				if !reflect.DeepEqual(clone.Stats(), ref.Stats()) {
					t.Errorf("stats:\nclone %+v\nref   %+v", clone.Stats(), ref.Stats())
				}
				rm, cm := ref.Machine(), clone.Machine()
				if cm.Regs != rm.Regs || cm.PC != rm.PC || cm.Output() != rm.Output() {
					t.Errorf("architectural state differs: pc %#x vs %#x", cm.PC, rm.PC)
				}
				rc, cc := ref.Caches(), clone.Caches()
				if cc.L1I.Stats() != rc.L1I.Stats() || cc.L1D.Stats() != rc.L1D.Stats() ||
					cc.L2.Stats() != rc.L2.Stats() || cc.Mem.Accesses != rc.Mem.Accesses {
					t.Errorf("cache stats: clone %s, ref %s", cc, rc)
				}
				if clone.BTB().Stats != ref.BTB().Stats {
					t.Errorf("BTB stats: clone %+v, ref %+v", clone.BTB().Stats, ref.BTB().Stats)
				}
				if h := ref.DirPredictor(); h != nil && clone.DirPredictor().Stats != h.Stats {
					t.Errorf("predictor stats: clone %+v, ref %+v", clone.DirPredictor().Stats, h.Stats)
				}
				if !reflect.DeepEqual(cloneSamples, refSamples) {
					t.Errorf("samples differ:\nclone %+v\nref   %+v", cloneSamples, refSamples)
				}
				if !reflect.DeepEqual(clone, ref) {
					t.Errorf("Sims differ at %s", firstDiff(reflect.ValueOf(clone), reflect.ValueOf(ref), "Sim"))
				}
				again, err := pipeline.Warm(cfg, im, p.Warmup, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ws, again) {
					t.Errorf("the cell changed the warm state it started from, at %s",
						firstDiff(reflect.ValueOf(ws), reflect.ValueOf(again), "WarmState"))
				}
			})
		}
	}
}

// TestWarmErrorFailsItsCells: a fast-forward that faults fails every
// cell of its warm key with the error a cell's own fast-forward gives — a
// hole each under skip — while the cells of other keys run.
func TestWarmErrorFailsItsCells(t *testing.T) {
	bad := workloads.Workload{Name: "misaligned", InstPerUnit: 1, Source: func(int) string {
		return "main:\n    li $t0, 1\n    lw $t1, 0($t0)\n    li $v0, 1\n    syscall\n"
	}}
	li, _ := workloads.ByName("li")
	base := config.Baseline()
	p := Params{InstBudget: 1_000, Warmup: 100, OnCellError: sweep.Skip, expID: "warm-error"}
	var holes []string
	p.holes = &holes

	im, err := buildFor(bad, p)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := pipeline.New(base, im)
	if err != nil {
		t.Fatal(err)
	}
	_, ffErr := sim.FastForward(p.Warmup)
	if ffErr == nil {
		t.Fatal("the misaligned load did not fault")
	}
	want := bad.Name + ": " + ffErr.Error()

	built := warmStatesBuilt.Load()
	out, err := runSims(p, []simCell{
		{bad, base}, {li, base}, {bad, base.WithPolicy(core.RepairFullStack)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := warmStatesBuilt.Load() - built; n != 2 {
		t.Errorf("built %d warm states, want 2", n)
	}
	if out[0].Sim != nil || out[2].Sim != nil || out[1].Sim == nil {
		t.Errorf("cells ran %v %v %v, want only the li cell", out[0].Sim != nil, out[1].Sim != nil, out[2].Sim != nil)
	}
	if len(holes) != 2 {
		t.Fatalf("holes = %q, want two", holes)
	}
	for _, h := range holes {
		if !strings.Contains(h, want) {
			t.Errorf("hole %q does not carry the fast-forward error %q", h, want)
		}
	}
}

// TestWarmPhaseHonorsCancellation: a context canceled before the warm
// phase starts (here by the store prefilter's hit callback, so the image
// build has already run) stops it before any fast-forward.
func TestWarmPhaseHonorsCancellation(t *testing.T) {
	st := openStore(t, t.TempDir())
	p := Params{InstBudget: 2_000, Warmup: 5_000, Workloads: []string{"go", "li"}, Parallel: 2, Store: st, StoreScope: "s"}
	if _, err := Run("t3", p); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Ctx = ctx
	p.Workloads = append(p.Workloads, "gcc") // go's and li's cells hit, gcc's miss
	p.OnStoreHit = func(string, int, bool, resultstore.Provenance) { cancel() }
	built := warmStatesBuilt.Load()
	if _, err := Run("t3", p); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := warmStatesBuilt.Load() - built; n != 0 {
		t.Errorf("built %d warm states after cancellation, want 0", n)
	}
}

// firstDiff returns the path of the first value where a and b differ, or
// "" when they are deeply equal (reflect.DeepEqual, but saying where).
// Non-nil funcs always differ; a pointer or slice shared by both sides,
// such as the image's predecode plane, is equal without a walk.
func firstDiff(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Pointer, reflect.Slice:
		if a.Pointer() == b.Pointer() && (a.Kind() == reflect.Pointer || a.Len() == b.Len()) {
			return ""
		}
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path
			}
			return ""
		}
		if a.Kind() == reflect.Interface && a.Elem().Type() != b.Elem().Type() {
			return path + " (type)"
		}
		return firstDiff(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := firstDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return path + " (length)"
		}
		for i := 0; i < a.Len(); i++ {
			if d := firstDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return path + " (length)"
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v]", path, k)
			}
			if d := firstDiff(a.MapIndex(k), bv, fmt.Sprintf("%s[%v]", path, k)); d != "" {
				return d
			}
		}
	case reflect.Func:
		if !a.IsNil() || !b.IsNil() {
			return path
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return path
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return path
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return path
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			return path
		}
	case reflect.String:
		if a.String() != b.String() {
			return path
		}
	default:
		return path + " (unsupported kind " + a.Kind().String() + ")"
	}
	return ""
}
