package pipeline

import (
	"reflect"
	"testing"

	"retstack/internal/cache"
	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/emu"
	"retstack/internal/program"
	"retstack/internal/workloads"
)

// The reference paths a test can switch a Sim's machines onto; production
// always runs block dispatch over the predecode plane.
var (
	stepDispatch = (*emu.Machine).DisableBlocks    // one instruction at a time
	decodeFetch  = (*emu.Machine).DisablePredecode // every fetch decodes from memory
)

// newWithReference is NewWithRecycler with ref (nil: none) applied to
// every thread's machine right after construction.
func newWithReference(cfg config.Config, im *program.Image, r *Recycler, ref func(*emu.Machine)) (*Sim, error) {
	s, err := NewWithRecycler(cfg, im, r)
	if err == nil && ref != nil {
		for _, th := range s.threads {
			ref(th.mach)
		}
	}
	return s, err
}

// TestFastPathsMatchReference is the determinism contract for the
// simulator-speed fast paths: basic-block dispatch and the predecode plane
// must change nothing but speed. Each input runs as production runs it and
// again on a reference path — fast-forward (single-thread machines only)
// plus a cycle-level window — and every statistic, cache counter, register
// and output byte of every thread must agree, bar the counters that
// measure the fast path itself. The inputs cross a misprediction-dense
// kernel and two workloads with single-path, multipath and SMT machines
// after a short warm-up, and the eight SPEC clones with the single-thread
// machines after a real one, so the block path's predictor training and
// cache warming are held to the step-at-a-time loop over 100k instructions.
func TestFastPathsMatchReference(t *testing.T) {
	const budget = 20_000
	cfgs := map[string]config.Config{
		"single":         config.Baseline().WithPolicy(core.RepairTOSPointerAndContents),
		"no-repair":      config.Baseline(),
		"2-path":         mpConfig(2, config.MPPerPath),
		"4-path-unified": mpConfig(4, config.MPUnifiedRepair),
		"smt-private":    smtConfig(2, false),
		"smt-shared":     smtConfig(2, true),
	}
	type input struct {
		name   string
		im     *program.Image
		warmup uint64
		smt    bool // also run the SMT configs (which never fast-forward)
	}
	build := func(name string, warmup uint64) *program.Image {
		w, _ := workloads.ByName(name)
		im, err := w.Build(w.ScaleFor(2 * (warmup + budget)))
		if err != nil {
			t.Fatal(err)
		}
		return im
	}
	inputs := []input{{"corruptor", mustAssemble(t, corruptorProgram), 4_000, true}}
	for _, name := range []string{"go", "li"} {
		inputs = append(inputs, input{name, build(name, 4_000), 4_000, true})
	}
	for _, name := range workloads.SPECNames() {
		inputs = append(inputs, input{name + "-warm", build(name, 100_000), 100_000, false})
	}
	refs := map[string]func(*emu.Machine){"step": stepDispatch, "decode": decodeFetch}
	for _, in := range inputs {
		for cname, cfg := range cfgs {
			if cfg.SMTThreads > 1 && !in.smt {
				continue
			}
			for rname, ref := range refs {
				t.Run(in.name+"/"+cname+"/"+rname, func(t *testing.T) {
					t.Parallel()
					run := func(ref func(*emu.Machine)) *Sim {
						s, err := newWithReference(cfg, in.im, nil, ref)
						if err == nil && len(s.threads) == 1 {
							_, err = s.FastForward(in.warmup)
						}
						if err == nil {
							err = s.Run(budget)
						}
						if err != nil {
							t.Fatal(err)
						}
						return s
					}
					fast, slow := run(nil), run(ref)

					fs, ss := *fast.Stats(), *slow.Stats()
					if fs.BlockHits == 0 {
						t.Error("block dispatch never engaged; the comparison is vacuous")
					}
					if ss.BlockHits != 0 || ss.BlockBuilds != 0 || (rname == "decode" && ss.PredecodeHits != 0) {
						t.Errorf("reference run used a fast path: %+v", ss)
					}
					fs.BlockHits, fs.BlockBuilds, ss.BlockHits, ss.BlockBuilds = 0, 0, 0, 0
					if rname == "decode" {
						fs.PredecodeHits, fs.PredecodeFallbacks, ss.PredecodeHits, ss.PredecodeFallbacks = 0, 0, 0, 0
					}
					if !reflect.DeepEqual(fs, ss) {
						t.Errorf("stats diverge:\nfast: %+v\n%s: %+v", fs, rname, ss)
					}
					fh, sh := fast.hier, slow.hier
					for _, lv := range []struct {
						name       string
						fast, slow *cache.Cache
					}{{"L1I", fh.L1I, sh.L1I}, {"L1D", fh.L1D, sh.L1D}, {"L2", fh.L2, sh.L2}} {
						if f, s := lv.fast.Stats(), lv.slow.Stats(); f != s {
							t.Errorf("%s counters diverge: fast %+v, %s %+v", lv.name, f, rname, s)
						}
					}
					for i := range fast.threads {
						fm, sm := fast.ThreadMachine(i), slow.ThreadMachine(i)
						if fm.Regs != sm.Regs || fm.Output() != sm.Output() {
							t.Errorf("thread %d: architectural registers or output diverge", i)
						}
					}
				})
			}
		}
	}
}

// benchFastForward measures warmup fast-mode throughput: functional
// execution plus cache and line-boundary modeling, which is where block
// dispatch pays off during the pre-window skip.
func benchFastForward(b *testing.B, ref func(*emu.Machine)) {
	im := benchImage(b, corruptorProgram)
	cfg := config.Baseline().WithPolicy(core.RepairTOSPointerAndContents)
	rec := NewRecycler()
	run := func() uint64 {
		s, err := newWithReference(cfg, im, rec, ref)
		if err != nil {
			b.Fatal(err)
		}
		n, err := s.FastForward(10_000)
		if err != nil {
			b.Fatal(err)
		}
		s.Release(rec)
		return n
	}
	run() // untimed warmup: primes the recycler pools and the block table
	b.ReportAllocs()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		insts += run()
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "ffInsts/s")
}

func BenchmarkFastForwardBlocks(b *testing.B)   { benchFastForward(b, nil) }
func BenchmarkFastForwardNoBlocks(b *testing.B) { benchFastForward(b, stepDispatch) }
