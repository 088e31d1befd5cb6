package pipeline

import (
	"reflect"
	"runtime"
	"testing"

	"retstack/internal/config"
	"retstack/internal/core"
)

// TestRecycledMatchesFresh chains Sims through one Recycler, stopping each
// at a different budget so that Release pools rings and a checkpoint table
// with work still in flight, and requires every recycled Sim to report
// what a fresh New reports for the same configuration and budget: Stats is
// a function of image, configuration and budget alone. Several budgets
// stop a forking or SMT machine just after a squash compacted its fetch
// queue; at every stop both Sims must pass CheckInvariants, which holds
// each checkpoint handle to one owner or the free stack. After Release the
// recycled Sim's cache and BTB statistics must still read the same, and
// once warm, building a Sim from the pool must stay within warmNewBytes.
func TestRecycledMatchesFresh(t *testing.T) {
	im := mustAssemble(t, corruptorProgram)
	// The organizations whose bulk storage the Recycler pools differently:
	// one path, forked paths sharing a checkpointed stack, forked paths with
	// private stacks, and SMT threads.
	machines := []struct {
		name string
		cfg  func(core.RepairPolicy) config.Config
	}{
		{"single-path", func(p core.RepairPolicy) config.Config { return config.Baseline().WithPolicy(p) }},
		{"2-path-unified-repair", func(p core.RepairPolicy) config.Config {
			return config.Baseline().WithPolicy(p).WithMultipath(2, config.MPUnifiedRepair)
		}},
		{"4-path-per-path", func(p core.RepairPolicy) config.Config {
			return config.Baseline().WithPolicy(p).WithMultipath(4, config.MPPerPath)
		}},
		{"2-thread-smt", func(p core.RepairPolicy) config.Config {
			c := config.Baseline().WithPolicy(p)
			c.SMTThreads = 2
			return c
		}},
	}
	budgets := []uint64{1696, 2242, 3217, 4218, 5167, 6155, 8144}
	for _, m := range machines {
		t.Run(m.name, func(t *testing.T) {
			rec := NewRecycler()
			for _, pol := range core.Policies() {
				for i, budget := range budgets {
					cfg := m.cfg(pol)
					if i%2 == 1 { // alternate shapes, so pooled arrays are reused across them
						cfg.L2.SizeBytes = 256 << 10
						cfg.BTBSets, cfg.BTBWays = 128, 2
					}
					fresh, err := New(cfg, im)
					if err != nil {
						t.Fatal(err)
					}
					pooled, err := NewWithRecycler(cfg, im, rec)
					if err != nil {
						t.Fatal(err)
					}
					for _, s := range []*Sim{fresh, pooled} {
						if err := s.Run(budget); err != nil {
							t.Fatalf("%v budget %d: %v", pol, budget, err)
						}
						if err := s.CheckInvariants(); err != nil {
							t.Fatalf("%v budget %d: %v", pol, budget, err)
						}
					}
					pooled.Release(rec)

					want, got := *fresh.Stats(), *pooled.Stats()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v budget %d: recycled stats diverge:\nfresh:    %+v\nrecycled: %+v",
							pol, budget, want, got)
					}
					if fresh.Caches().String() != pooled.Caches().String() ||
						fresh.Caches().L2.Stats() != pooled.Caches().L2.Stats() {
						t.Fatalf("%v budget %d: cache stats after Release: %s, want %s",
							pol, budget, pooled.Caches(), fresh.Caches())
					}
					if fresh.BTB().Stats != pooled.BTB().Stats {
						t.Fatalf("%v budget %d: BTB stats after Release: %+v, want %+v",
							pol, budget, pooled.BTB().Stats, fresh.BTB().Stats)
					}
				}
			}
		})
	}

	t.Run("warm-new-bytes", func(t *testing.T) {
		cfg := config.Baseline().WithPolicy(core.RepairFullStack)
		rec := NewRecycler()
		for i := 0; i < 3; i++ {
			s, err := NewWithRecycler(cfg, im, rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(3000); err != nil {
				t.Fatal(err)
			}
			s.Release(rec)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := NewWithRecycler(cfg, im, rec)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		s.Release(rec)
		if n := after.TotalAlloc - before.TotalAlloc; n > warmNewBytes {
			t.Fatalf("warm NewWithRecycler allocated %d bytes, budget %d", n, warmNewBytes)
		}
	})
}

// warmNewBytes is the most a warm NewWithRecycler may allocate for the
// baseline machine: the Sim, its machine and predictors (about 20 KB), but
// none of the pooled arrays. The RUU ring alone is about 15 KB, the BTB
// 32 KB and the cache lines 320 KB, so dropping any of those pools breaks
// the budget.
const warmNewBytes = 32 << 10
