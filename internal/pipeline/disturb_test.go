package pipeline

import (
	"reflect"
	"testing"

	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/faultinject"
)

// runFib runs recursive fib under cfg with an optional disturber and
// returns the final stats.
func runFib(t *testing.T, cfg config.Config, every uint64, seed uint64) *Stats {
	t.Helper()
	im := mustAssemble(t, fibProgram)
	s, err := New(cfg, im)
	if err != nil {
		t.Fatal(err)
	}
	if every > 0 {
		s.SetDisturber(every, faultinject.Addr(seed))
	}
	if err := s.Run(150_000); err != nil {
		t.Fatal(err)
	}
	return s.Stats()
}

// TestDisturberAbsorbedAsMispredictions is the paper-aligned injection
// contract: periodically corrupting the live RAS must never crash or
// wedge a simulation — the corruption is either repaired by the
// checkpoint mechanism or shows up as return mispredictions.
func TestDisturberAbsorbedAsMispredictions(t *testing.T) {
	for _, pol := range core.Policies() {
		cfg := config.Baseline().WithPolicy(pol)
		clean := runFib(t, cfg, 0, 0)
		hurt := runFib(t, cfg, 200, 42)
		if hurt.Committed != clean.Committed {
			t.Errorf("%v: disturbed run committed %d insts, clean %d — corruption must not change forward progress",
				pol, hurt.Committed, clean.Committed)
		}
		if hurt.RAS.Corruptions == 0 {
			t.Fatalf("%v: disturber never fired", pol)
		}
		cleanHR, hurtHR := clean.ReturnHitRate(), hurt.ReturnHitRate()
		if hurtHR > cleanHR+1e-9 {
			t.Errorf("%v: corruption improved the hit rate (%.4f > %.4f)?", pol, hurtHR, cleanHR)
		}
		t.Logf("%v: corruptions=%d hit %.4f -> %.4f", pol, hurt.RAS.Corruptions, cleanHR, hurtHR)
	}
}

// TestDisturberDeterministic: equal seeds reproduce identical stats, so a
// rerun of a corrupted cell reproduces it byte-identically.
func TestDisturberDeterministic(t *testing.T) {
	cfg := config.Baseline().WithPolicy(core.RepairTOSPointerAndContents)
	a := runFib(t, cfg, 500, 7)
	b := runFib(t, cfg, 500, 7)
	if !reflect.DeepEqual(a, b) {
		t.Error("two runs with the same disturber seed diverged")
	}
}

// TestSetDisturberDisable: zero period or nil generator disarms it.
func TestSetDisturberDisable(t *testing.T) {
	im := mustAssemble(t, fibProgram)
	s, err := New(config.Baseline(), im)
	if err != nil {
		t.Fatal(err)
	}
	s.SetDisturber(100, faultinject.Addr(1))
	s.SetDisturber(0, nil)
	if err := s.Run(20_000); err != nil {
		t.Fatal(err)
	}
	if s.Stats().RAS.Corruptions != 0 {
		t.Errorf("disabled disturber corrupted %d entries", s.Stats().RAS.Corruptions)
	}
}
