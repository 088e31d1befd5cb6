package pipeline

import (
	"testing"

	"retstack/internal/asm"
	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/program"
)

// TestSteadyStateStepAllocs pins the tentpole allocation property: once
// warmed up, stepping a misprediction-heavy single-path simulation — wrong
// -path execution on the overlay, squashes, recoveries, checkpoint traffic
// — allocates nothing per cycle.
func TestSteadyStateStepAllocs(t *testing.T) {
	im := mustAssemble(t, corruptorProgram)
	single, err := New(config.Baseline().WithPolicy(core.RepairTOSPointerAndContents), im)
	if err != nil {
		t.Fatal(err)
	}
	// A lockstep carrier of mixed-policy members, full-stack included,
	// packs every member's checkpoint into pooled buffers.
	var members []config.Config
	for _, pol := range core.Policies() {
		members = append(members, config.Baseline().WithPolicy(pol))
	}
	members = append(members, config.Baseline().WithPolicy(core.RepairFullStack).WithRASEntries(8))
	carrier, err := NewLockstep(members, im, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Sim{"single": single, "lockstep carrier": carrier} {
		for i := 0; i < 5000; i++ { // warm caches, pools, and the overlay table
			if err := s.StepForTest(); err != nil {
				t.Fatal(err)
			}
		}
		n := testing.AllocsPerRun(20, func() {
			for i := 0; i < 200; i++ {
				_ = s.StepForTest()
			}
		})
		if s.Done() {
			t.Fatalf("%s: program finished during measurement; shorten the warmup", name)
		}
		if n != 0 {
			t.Fatalf("%s: steady-state stepping allocates %v times per 200 cycles, want 0", name, n)
		}
		if s.Stats().Recoveries == 0 {
			t.Fatalf("%s: workload produced no recoveries; the pin is vacuous", name)
		}
	}
}

// TestFoldLiveStackStatsAllocs pins the scratch-slice replacement of the
// per-call seen map: folding live stack stats allocates nothing.
func TestFoldLiveStackStatsAllocs(t *testing.T) {
	im := mustAssemble(t, corruptorProgram)
	s, err := New(mpConfig(4, config.MPPerPath), im)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := s.StepForTest(); err != nil {
			t.Fatal(err)
		}
	}
	save := s.stats.RAS
	if n := testing.AllocsPerRun(50, s.foldLiveStackStats); n != 0 {
		t.Fatalf("foldLiveStackStats allocates %v times, want 0", n)
	}
	s.stats.RAS = save // the repeated folds double-counted; restore
}

// TestOverlayPoolRecycles checks the fork/squash overlay lifecycle: under
// multipath with plentiful squashes, released paths' overlays are reused by
// later forks instead of freshly allocated.
func TestOverlayPoolRecycles(t *testing.T) {
	im := mustAssemble(t, corruptorProgram)
	s := runSim(t, mpConfig(4, config.MPPerPath), im)
	st := s.Stats()
	if st.Forks == 0 || st.PathsSquashed == 0 {
		t.Fatalf("workload forked %d / squashed %d paths; test is vacuous", st.Forks, st.PathsSquashed)
	}
	if s.overlayReuses == 0 {
		t.Error("no overlay was ever served from the pool")
	}
	// Every fork after the pool primes should hit it; allow the first few
	// forks (one per concurrently-live path) to allocate.
	if s.overlayReuses+uint64(s.cfg.MaxPaths) < st.Forks {
		t.Errorf("only %d of %d forks reused a pooled overlay", s.overlayReuses, st.Forks)
	}
}

// benchImage assembles a test program for a benchmark.
func benchImage(b *testing.B, src string) *program.Image {
	im, err := asm.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	return im
}

// benchWarm runs one untimed simulation to fill the recycler's pools, so a
// -benchtime 1x run (the CI allocation guard) measures the recycled steady
// state the committed baseline records, not first-run pool construction.
func benchWarm(b *testing.B, cfg config.Config, im *program.Image, rec *Recycler) {
	b.Helper()
	s, err := NewWithRecycler(cfg, im, rec)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Run(20_000); err != nil {
		b.Fatal(err)
	}
	s.Release(rec)
}

// BenchmarkRecovery measures the wrong-path-and-recover cycle end to end: a
// misprediction-dense single-path run where the dominant work is overlay
// execution, squash, and RAS repair. The recycler mirrors sweep-worker use
// so steady-state iterations exercise the pools.
func BenchmarkRecovery(b *testing.B) {
	im := benchImage(b, corruptorProgram)
	cfg := config.Baseline().WithPolicy(core.RepairTOSPointerAndContents)
	rec := NewRecycler()
	benchWarm(b, cfg, im, rec)
	b.ReportAllocs()
	b.ResetTimer()
	var recoveries uint64
	for i := 0; i < b.N; i++ {
		s, err := NewWithRecycler(cfg, im, rec)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Run(20_000); err != nil {
			b.Fatal(err)
		}
		recoveries += s.Stats().Recoveries
		s.Release(rec)
	}
	b.ReportMetric(float64(recoveries)/float64(b.N), "recoveries/op")
}

// BenchmarkPathFork measures multipath forking with per-path stacks: every
// low-confidence branch clones a path context (overlay from the pool, stack
// copied), and resolution squashes the loser.
func BenchmarkPathFork(b *testing.B) {
	im := benchImage(b, corruptorProgram)
	cfg := mpConfig(4, config.MPPerPath)
	rec := NewRecycler()
	benchWarm(b, cfg, im, rec)
	b.ReportAllocs()
	b.ResetTimer()
	var forks uint64
	for i := 0; i < b.N; i++ {
		s, err := NewWithRecycler(cfg, im, rec)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Run(20_000); err != nil {
			b.Fatal(err)
		}
		forks += s.Stats().Forks
		s.Release(rec)
	}
	b.ReportMetric(float64(forks)/float64(b.N), "forks/op")
}
