package workloads

import (
	"fmt"
	"sync"
	"sync/atomic"

	"retstack/internal/asm"
	"retstack/internal/program"
)

// Arena is an image build cache with an explicit pre-warm/serve split.
//
// A sweep's lifecycle has two phases with very different concurrency
// profiles. During pre-warm, a handful of distinct images are assembled
// (and predecoded) once, before any simulation worker starts; builds are
// rare, so a mutex is fine. During the sweep itself, workers only *read*
// — and a read that contends on anything (the mutex here, the dirty-map
// promotion of a sync.Map, a sync.Once convoy) is cross-worker sharing on
// the hot path. Freeze publishes the arena's contents as an immutable
// snapshot that Build consults with one atomic load and a plain map read:
// after pre-warm, concurrent builders of warmed images share nothing
// writable.
//
// Images handed out are immutable and shared: machines copy segment bytes
// into their own memory at Load, and the predecode plane is read-only, so
// any number of concurrent simulations may hold the same *program.Image.
type Arena struct {
	frozen atomic.Pointer[map[string]*program.Image]

	mu    sync.Mutex
	built map[string]*program.Image
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{built: map[string]*program.Image{}}
}

// Build assembles the workload at the given scale, memoized by the
// generated source text (not the workload name, which a caller-defined
// Workload could reuse for different programs). Images already published
// by Freeze are returned without taking any lock; everything else builds
// (or is returned) under the arena mutex.
func (a *Arena) Build(w Workload, scale int) (*program.Image, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("workloads: %s: scale must be positive", w.Name)
	}
	src := w.Source(scale)
	if m := a.frozen.Load(); m != nil {
		if im, ok := (*m)[src]; ok {
			return im, nil
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if im, ok := a.built[src]; ok {
		return im, nil
	}
	im, err := asm.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", w.Name, err)
	}
	a.built[src] = im
	return im, nil
}

// Freeze publishes the arena's current contents as the lock-free read
// snapshot. Images built afterwards still land in the mutable map; calling
// Freeze again republishes everything. The intended shape is one Freeze at
// the end of a pre-warm phase, before sweep workers start.
func (a *Arena) Freeze() {
	a.mu.Lock()
	snap := make(map[string]*program.Image, len(a.built))
	for k, v := range a.built {
		snap[k] = v
	}
	a.mu.Unlock()
	a.frozen.Store(&snap)
}

// defaultArena memoizes builds for the package-level convenience API
// (Workload.Build): retstack.Run-in-a-loop callers, examples, and
// benchmarks reuse images across runs without managing an arena. The
// experiment harness builds every sweep's images through it too, then
// freezes it before workers start (see SharedArena).
var defaultArena = NewArena()

// SharedArena returns the process-default arena behind Workload.Build.
// The experiment harness pre-warms and freezes it so repeated experiments
// in one process (rasbench -exp all, rasserve campaigns) share images
// without rebuilding, while sweep workers read only the frozen snapshot.
func SharedArena() *Arena { return defaultArena }
