package workloads

import (
	"sync"
	"testing"
)

// pinnedWorkload returns a workload whose Source is a captured constant
// string: real workload generators allocate while rendering their source
// text, which would hide the arena's own cost from an allocation pin. The
// arena memoizes by source text, so a constant source exercises exactly
// the lookup paths under test.
func pinnedWorkload(t *testing.T) Workload {
	t.Helper()
	base, ok := ByName("micro.callchain")
	if !ok {
		t.Fatal("micro.callchain not registered")
	}
	src := base.Source(2)
	return Workload{
		Name:        "pinned",
		InstPerUnit: base.InstPerUnit,
		Source:      func(int) string { return src },
	}
}

// TestArenaFrozenBuildAllocs pins the sweep hot path's contract: after
// Freeze, Build of a warmed image is one atomic load plus a map read —
// zero allocations and zero shared mutable state.
func TestArenaFrozenBuildAllocs(t *testing.T) {
	w := pinnedWorkload(t)
	a := NewArena()
	want, err := a.Build(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	a.Freeze()

	allocs := testing.AllocsPerRun(100, func() {
		im, err := a.Build(w, 2)
		if err != nil || im != want {
			t.Fatalf("warm Build = %p, %v; want the frozen image %p", im, err, want)
		}
	})
	if allocs != 0 {
		t.Errorf("frozen Arena.Build allocated %.1f objects/op, want 0", allocs)
	}
}

// TestFrozenArenaConcurrentReads hammers the pre-warmed image path from 16
// goroutines under the race detector: every reader must get the same
// immutable image through the shared frozen snapshot, while touching the
// predecode plane the way sweep cells do. Any cross-goroutine write on
// this path is a test failure via -race.
func TestFrozenArenaConcurrentReads(t *testing.T) {
	w := pinnedWorkload(t)
	a := NewArena()
	want, err := a.Build(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pl := want.Predecode(); pl != nil {
		pl.PrewarmBlocks()
	}
	a.Freeze()

	const goroutines = 16
	const iters = 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				im, err := a.Build(w, 2)
				if err != nil || im != want {
					errs <- err
					return
				}
				pl := im.Predecode()
				if pl == nil {
					continue
				}
				// Read the plane the way a sweep cell's machine does.
				pc := pl.Base()
				if _, ok := pl.Lookup(pc); !ok {
					errs <- err
					return
				}
				pl.BlockLen(pc)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent pre-warmed read failed: %v", err)
	}
}
