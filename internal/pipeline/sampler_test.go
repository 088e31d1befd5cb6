package pipeline

import (
	"reflect"
	"testing"

	"retstack/internal/config"
	"retstack/internal/core"
)

// TestSamplerSeesDynamics runs recursive fib to its exit with a fine
// sampling interval and checks the snapshots are coherent: cycles advance
// by the interval up to the run's final sample, occupancies stay within
// their structural bounds, RAS depth moves, and the deltas sum to the
// run's totals, the cycles after the last sample point included.
func TestSamplerSeesDynamics(t *testing.T) {
	im := mustAssemble(t, fibProgram)
	cfg := config.Baseline().WithPolicy(core.RepairTOSPointerAndContents)
	s, err := New(cfg, im)
	if err != nil {
		t.Fatal(err)
	}

	const every = 64
	var samples []Sample
	s.SetSampler(every, func(sm Sample) { samples = append(samples, sm) })
	if err := s.Run(200_000); err != nil {
		t.Fatal(err)
	}

	if len(samples) < 10 {
		t.Fatalf("only %d samples for a %d-cycle run", len(samples), s.stats.Cycles)
	}
	maxDepth := 0
	var sumSquash, sumRecover, sumPD, sumBlk uint64
	for i, sm := range samples {
		final := i == len(samples)-1
		if sm.Cycle%every != 0 && !final {
			t.Fatalf("sample %d at cycle %d, not a multiple of %d", i, sm.Cycle, every)
		}
		if sm.RUUOccupancy < 0 || sm.RUUOccupancy > cfg.RUUSize {
			t.Fatalf("RUU occupancy %d outside [0,%d]", sm.RUUOccupancy, cfg.RUUSize)
		}
		if sm.LSQOccupancy < 0 || sm.LSQOccupancy > cfg.LSQSize {
			t.Fatalf("LSQ occupancy %d outside [0,%d]", sm.LSQOccupancy, cfg.LSQSize)
		}
		if sm.RASDepth < 0 || sm.RASDepth > cfg.RASEntries {
			t.Fatalf("RAS depth %d outside [0,%d]", sm.RASDepth, cfg.RASEntries)
		}
		// The final sample follows the program's exit, when no path is live.
		if sm.LivePaths < 1 && !(final && s.Done()) {
			t.Fatalf("sample %d reports %d live paths", i, sm.LivePaths)
		}
		if sm.RASDepth > maxDepth {
			maxDepth = sm.RASDepth
		}
		sumSquash += sm.NewSquashed
		sumRecover += sm.NewRecoveries
		sumPD += sm.NewPredecodeHits
		sumBlk += sm.NewBlockHits
		if i > 0 && sm.Committed < samples[i-1].Committed {
			t.Fatalf("committed went backwards at sample %d", i)
		}
	}
	if maxDepth == 0 {
		t.Error("recursive fib never showed RAS depth > 0")
	}
	st := s.Stats()
	if sumSquash != st.Squashed || sumRecover != st.Recoveries ||
		sumPD != st.PredecodeHits || sumBlk != st.BlockHits {
		t.Errorf("deltas do not sum to the run's totals: squash %d vs %d, recover %d vs %d, predecode hits %d vs %d, block hits %d vs %d",
			sumSquash, st.Squashed, sumRecover, st.Recoveries, sumPD, st.PredecodeHits, sumBlk, st.BlockHits)
	}
	if st.Squashed == 0 {
		t.Error("expected some wrong-path squashes on fib")
	}
}

// TestSamplerDoesNotPerturb: identical runs with and without a sampler
// must produce identical statistics and program output — sampling is
// read-only by contract.
func TestSamplerDoesNotPerturb(t *testing.T) {
	im := mustAssemble(t, fibProgram)
	cfg := config.Baseline().WithPolicy(core.RepairTOSPointer)

	plain, err := New(cfg, im)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Run(150_000); err != nil {
		t.Fatal(err)
	}

	sampled, err := New(cfg, im)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	sampled.SetSampler(32, func(Sample) { n++ })
	if err := sampled.Run(150_000); err != nil {
		t.Fatal(err)
	}

	if n == 0 {
		t.Fatal("sampler never fired")
	}
	a, b := *plain.Stats(), *sampled.Stats()
	a.PerThreadCommitted, b.PerThreadCommitted = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("stats diverge with sampler attached:\nplain:   %+v\nsampled: %+v", a, b)
	}
	if plain.Machine().Output() != sampled.Machine().Output() {
		t.Error("program output diverges with sampler attached")
	}
}

// TestSamplerMultipath checks sampling under multipath forking, where live
// paths exceed one and per-path stacks come and go.
func TestSamplerMultipath(t *testing.T) {
	im := mustAssemble(t, fibProgram)
	cfg := config.Baseline().
		WithPolicy(core.RepairTOSPointerAndContents).
		WithMultipath(4, config.MPPerPath)
	s, err := New(cfg, im)
	if err != nil {
		t.Fatal(err)
	}
	maxPaths := 0
	s.SetSampler(16, func(sm Sample) {
		if sm.LivePaths > maxPaths {
			maxPaths = sm.LivePaths
		}
		if sm.LivePaths > cfg.MaxPaths {
			t.Errorf("live paths %d exceeds MaxPaths %d", sm.LivePaths, cfg.MaxPaths)
		}
	})
	if err := s.Run(150_000); err != nil {
		t.Fatal(err)
	}
	if maxPaths < 2 {
		t.Errorf("multipath fib never forked under sampling (max live paths %d)", maxPaths)
	}
}

// TestSetSamplerDefaults: interval below 1 selects the default, and a nil
// function disables sampling entirely.
func TestSetSamplerDefaults(t *testing.T) {
	im := mustAssemble(t, fibProgram)
	s, err := New(config.Baseline(), im)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	s.SetSampler(0, func(Sample) { fired++ })
	if s.sampleEvery != DefaultSampleEvery {
		t.Errorf("sampleEvery = %d, want %d", s.sampleEvery, DefaultSampleEvery)
	}
	s.SetSampler(0, nil)
	if err := s.Run(50_000); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Errorf("sampler fired %d times after being removed", fired)
	}
}
