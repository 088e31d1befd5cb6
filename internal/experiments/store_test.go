package experiments

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"retstack/internal/resultstore"
	"retstack/internal/sweep"
)

// storeParams mirrors resilParams: t3 over two workloads is 8 cells.
func storeParams(st *resultstore.Store, scope string) Params {
	p := Params{InstBudget: 15_000, Workloads: []string{"go", "li"}, Parallel: 2}
	p.Store, p.StoreScope = st, scope
	return p
}

func openStore(t *testing.T, dir string) *resultstore.Store {
	t.Helper()
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// countingMonitor counts cell starts: a cell that splices from the store
// never reaches the cell scheduler, so a fully-warm run must report zero
// starts — the "zero simulations" half of the cache-smoke contract.
type countingMonitor struct {
	mu     sync.Mutex
	starts int
}

func (m *countingMonitor) CellStart(cell, worker int) {
	m.mu.Lock()
	m.starts++
	m.mu.Unlock()
}
func (m *countingMonitor) CellDone(cell, worker int, d time.Duration, err error) {}

// TestStoreMatchesUncached is the byte-identity pin for the result store:
// an uncached run, a cold cached run, and a warm run against a reopened
// store must render identical tables, and the warm run must start no
// cell. This warm half is also the resume contract: an interrupted run
// resumes by rerunning against the same store. t2 rides along because
// its cells carry the functional profile as well as the simulation
// stats, and both must round-trip through a stored record.
// With a warm-up, t3 over the eight workloads fast-forwards once per
// workload, and only for cells the store lacks: the cold run builds 8
// warm states and the warm rerun none.
func TestStoreMatchesUncached(t *testing.T) {
	for _, tc := range []struct {
		name, exp string
		cells     uint64
		warm      int64 // warm states a cold run builds
		params    func(*resultstore.Store, string) Params
	}{
		{"t3", "t3", 8, 0, storeParams},
		{"t2", "t2", 2, 0, storeParams},
		{"t3-warmup", "t3", 32, 8, func(st *resultstore.Store, scope string) Params {
			p := storeParams(st, scope)
			p.InstBudget, p.Warmup, p.Workloads = 3_000, 20_000, nil
			return p
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			uncached, err := Run(tc.exp, tc.params(nil, ""))
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			cold := openStore(t, dir)
			built := warmStatesBuilt.Load()
			res, err := Run(tc.exp, tc.params(cold, "scopeA"))
			if err != nil {
				t.Fatal(err)
			}
			if res.String() != uncached.String() {
				t.Errorf("cold cached run differs from uncached:\n--- uncached ---\n%s--- cold ---\n%s", uncached, res)
			}
			if s := cold.Stats(); s.Hits != 0 || s.Misses != tc.cells || s.Puts != tc.cells {
				t.Errorf("cold stats = %+v, want 0 hits, %d misses, %d puts", s, tc.cells, tc.cells)
			}
			if n := warmStatesBuilt.Load() - built; n != tc.warm {
				t.Errorf("cold run built %d warm states, want %d", n, tc.warm)
			}
			if err := cold.Close(); err != nil {
				t.Fatal(err)
			}

			warm := openStore(t, dir)
			mon := &countingMonitor{}
			p := tc.params(warm, "scopeA")
			p.Monitor = mon
			built = warmStatesBuilt.Load()
			res, err = Run(tc.exp, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.String() != uncached.String() {
				t.Errorf("warm cached run differs from uncached:\n--- uncached ---\n%s--- warm ---\n%s", uncached, res)
			}
			if s := warm.Stats(); s.Hits != tc.cells || s.Misses != 0 || s.Puts != 0 {
				t.Errorf("warm stats = %+v, want %d hits, 0 misses, 0 puts", s, tc.cells)
			}
			if mon.starts != 0 {
				t.Errorf("warm run started %d cells, want 0 (all spliced)", mon.starts)
			}
			if n := warmStatesBuilt.Load() - built; n != 0 {
				t.Errorf("warm run built %d warm states, want 0", n)
			}
		})
	}
}

// TestStoreScopeSeparatesParams: the store key folds in the caller's
// scope hash, so a warm store probed under a different scope (different
// result-determining parameters) must miss everything and re-simulate —
// a store left by a run with other parameters never resumes this one.
func TestStoreScopeSeparatesParams(t *testing.T) {
	st := openStore(t, t.TempDir())
	if _, err := Run("t3", storeParams(st, "scopeA")); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	if _, err := Run("t3", storeParams(st, "scopeB")); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if hits := after.Hits - before.Hits; hits != 0 {
		t.Errorf("run under a new scope hit %d cached cells, want 0", hits)
	}
	if miss := after.Misses - before.Misses; miss != 8 {
		t.Errorf("run under a new scope missed %d cells, want 8", miss)
	}
}

// TestOnStoreHitCallback: every warm-splice surfaces through OnStoreHit
// exactly once, with shared=false (no concurrent flight to join).
func TestOnStoreHitCallback(t *testing.T) {
	st := openStore(t, t.TempDir())
	if _, err := Run("t3", storeParams(st, "s")); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	hits := map[int]bool{}
	p := storeParams(st, "s")
	p.OnStoreHit = func(exp string, cell int, shared bool) {
		mu.Lock()
		defer mu.Unlock()
		if exp != "t3" {
			t.Errorf("hit reported for experiment %q, want t3", exp)
		}
		if shared {
			t.Errorf("cell %d reported shared=true on a sequential warm run", cell)
		}
		if hits[cell] {
			t.Errorf("cell %d reported twice", cell)
		}
		hits[cell] = true
	}
	if _, err := Run("t3", p); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 8 {
		t.Errorf("OnStoreHit fired for %d cells, want 8", len(hits))
	}
}

// TestStoreRefusesFaultInjection: injected cells produce corrupted
// results a clean run must never read back, so combining -store with
// -inject is an error, not a footgun.
func TestStoreRefusesFaultInjection(t *testing.T) {
	st := openStore(t, t.TempDir())
	p := storeParams(st, "s")
	p.Inject = mustPlan(t, "panic:0", 0)
	if _, err := Run("t3", p); err == nil {
		t.Fatal("Run with Store+Inject succeeded, want refusal")
	}
}

// TestConcurrentRunsShareFlights is the singleflight collapse proof at
// the experiments layer (run under -race in CI): four identical sweeps
// racing on one cold store must persist each cell exactly once — every
// other caller either joins the in-flight simulation or hits the record
// it left behind — simulate each cell exactly once between them, and all
// four must render identical tables. t3's cells run as lockstep units, so
// a racer joins a unit's lead flight and then finds its members stored.
func TestConcurrentRunsShareFlights(t *testing.T) {
	st := openStore(t, t.TempDir())
	simulated := unitStats.simulated.Load()
	const racers = 4
	results := make([]*Result, racers)
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for r := 0; r < racers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = Run("t3", storeParams(st, "race"))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("racer %d: %v", r, err)
		}
	}
	for r := 1; r < racers; r++ {
		if results[r].String() != results[0].String() {
			t.Errorf("racer %d output differs from racer 0", r)
		}
	}
	s := st.Stats()
	if s.Puts != 8 {
		t.Errorf("%d cells persisted across %d concurrent runs, want 8 (one simulation per cell)", s.Puts, racers)
	}
	if got := s.Hits + s.Shared; got != (racers-1)*8 {
		t.Errorf("hits+shared = %d, want %d: every non-leader must hit or join a flight", got, (racers-1)*8)
	}
	if n := unitStats.simulated.Load() - simulated; n != 8 {
		t.Errorf("the racers simulated %d cells between them, want 8", n)
	}
}

// TestWatchdogBoundsStoreWait: under the watchdog, a cell whose key
// another run is computing waits on that run's store flight for at most
// the cell timeout, then becomes the cell's watchdog hole; the other
// cells still run.
func TestWatchdogBoundsStoreWait(t *testing.T) {
	st := openStore(t, t.TempDir())
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		st.Do(context.Background(), resultstore.CellKey("s", "t3", 0), func() ([]byte, resultstore.Provenance, error) {
			close(started)
			<-release
			return nil, resultstore.Provenance{}, errors.New("the other run gave up")
		})
	}()
	<-started
	defer func() { close(release); <-done }()

	p := storeParams(st, "s")
	p.OnCellError = sweep.Skip
	p.CellTimeout = 300 * time.Millisecond
	res, err := Run("t3", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Holes) != 1 || !strings.HasPrefix(res.Holes[0], "sweep: cell 0: cell watchdog") {
		t.Errorf("holes = %q, want cell 0's watchdog timeout", res.Holes)
	}
	if puts := st.Stats().Puts; puts != 7 {
		t.Errorf("%d cells persisted, want the 7 cells no other run was computing", puts)
	}
}

// TestStoreFaultDegradesToUncached is the compute-without-cache
// contract: a store whose Puts fail mid-run (disk full) must not fail
// the run — every cell that simulated successfully completes, the
// OnStoreFault callback fires so a server can flip degraded, and the
// rendered tables are byte-identical to an uncached run. Cells persisted
// before the fault still serve as hits on a rerun.
func TestStoreFaultDegradesToUncached(t *testing.T) {
	uncached, err := Run("t3", storeParams(nil, ""))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st := openStore(t, dir)
	var allowed atomic.Int64
	allowed.Store(2) // first two Puts land, the rest fail
	st.SetPutFault(func() error {
		if allowed.Add(-1) < 0 {
			return errors.New("no space left on device")
		}
		return nil
	})
	var faults atomic.Int64
	p := storeParams(st, "scopeA")
	p.Parallel = 1 // deterministic put order: exactly 2 persisted
	p.OnStoreFault = func(err error) {
		if !resultstore.IsIO(err) {
			t.Errorf("OnStoreFault got a non-I/O error: %v", err)
		}
		faults.Add(1)
	}
	res, err := Run("t3", p)
	if err != nil {
		t.Fatalf("run under store fault failed instead of degrading: %v", err)
	}
	if res.String() != uncached.String() {
		t.Errorf("degraded run differs from uncached:\n--- uncached ---\n%s--- degraded ---\n%s", uncached, res)
	}
	if got := faults.Load(); got != 6 {
		t.Errorf("OnStoreFault fired %d times, want 6 (8 cells - 2 persisted)", got)
	}
	if puts := st.Stats().Puts; puts != 2 {
		t.Errorf("store persisted %d cells, want 2", puts)
	}

	// The two persisted cells are real hits once the fault clears.
	st.SetPutFault(nil)
	hits := 0
	p2 := storeParams(st, "scopeA")
	p2.OnStoreHit = func(exp string, cell int, shared bool) { hits++ }
	p2.Parallel = 1
	if _, err := Run("t3", p2); err != nil {
		t.Fatal(err)
	}
	if hits != 2 {
		t.Errorf("rerun hit %d cells, want the 2 persisted before the fault", hits)
	}
}
