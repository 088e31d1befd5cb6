package resultstore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	key := CellKey("scope", "t3", 7)
	payload := []byte(`{"stats":{"Cycles":1200,"Committed":1000}}`)
	if _, _, ok := s.Get(key); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.Put(key, payload, Provenance{Scope: "scope", Exp: "t3", Cell: 7}); err != nil {
		t.Fatal(err)
	}
	got, prov, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want stored payload", got, ok)
	}
	if prov.Exp != "t3" || prov.Cell != 7 || prov.Time == "" || prov.Tool == "" {
		t.Fatalf("provenance not stamped: %+v", prov)
	}

	// A fresh Open must see the same record, provenance included.
	s2 := mustOpen(t, dir)
	got, prov, ok = s2.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("reopened Get = %q, %v; want stored payload", got, ok)
	}
	if prov.Exp != "t3" || prov.Cell != 7 {
		t.Fatalf("reopened provenance lost: %+v", prov)
	}
	st := s2.Stats()
	if st.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", st.Recovered)
	}
	if st.Hits != 1 || s.Stats().Misses != 1 || s.Stats().Puts != 1 {
		t.Fatalf("stats off: reopened=%+v original=%+v", st, s.Stats())
	}
}

func TestLatestRecordWins(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	key := CellKey("scope", "t3", 0)
	for i := 0; i < 3; i++ {
		if err := s.Put(key, []byte(fmt.Sprintf(`{"v":%d}`, i)), Provenance{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range []*Store{s, mustOpen(t, dir)} {
		got, _, ok := st.Get(key)
		if !ok || string(got) != `{"v":2}` {
			t.Fatalf("Get = %q, %v; want latest record", got, ok)
		}
	}
}

// TestTornTailRecoveredAndTruncated: the store's recovery accounting over
// seglog's torn-tail handling — Recovered counts the records that came
// back and DroppedBytes the bytes that did not. A directory written
// before the store moved onto seglog holds no seglog frames at all, so it
// opens as an empty cache reporting every byte dropped.
func TestTornTailRecoveredAndTruncated(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "seg-000001.log")
	old := `{"key":"4046c8356b18d1ea","crc":2166136261,"prov":{"tool":"rasbench"},"payload":{"v":1}}` + "\n"
	appendFile(t, seg, old)
	s := mustOpen(t, dir)
	if st := s.Stats(); s.Len() != 0 || st.Recovered != 0 || st.DroppedBytes != uint64(len(old)) {
		t.Fatalf("pre-seglog store: len %d, stats %+v; want empty with %d dropped bytes", s.Len(), st, len(old))
	}
	k0, k1 := CellKey("s", "t3", 0), CellKey("s", "t3", 1)
	if err := s.Put(k0, []byte(`{"v":0}`), Provenance{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k1, []byte(`{"v":1}`), Provenance{}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash mid-append: half a frame, no newline.
	torn := `{"crc":123,"payload":{"key":"deadbeef","payload":{"v"`
	appendFile(t, seg, torn)

	s2 := mustOpen(t, dir)
	for _, k := range []string{k0, k1} {
		if _, _, ok := s2.Get(k); !ok {
			t.Fatalf("key %s lost to a torn tail", k[:8])
		}
	}
	if st := s2.Stats(); st.Recovered != 2 || st.DroppedBytes != uint64(len(torn)) {
		t.Fatalf("stats = %+v, want 2 recovered and %d dropped bytes", st, len(torn))
	}
}

// TestCorruptRecordStopsAtPrefix: a record whose checksum no longer
// matches ends recovery — the records before it are served, it and
// everything after it are not, and its bytes count as dropped.
func TestCorruptRecordStopsAtPrefix(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	k0, k1 := CellKey("s", "t3", 0), CellKey("s", "t3", 1)
	if err := s.Put(k0, []byte(`{"v":0}`), Provenance{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k1, []byte(`{"v":1}`), Provenance{}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip a payload byte inside the second record: its CRC no longer
	// matches, so recovery must keep only the first record.
	seg := filepath.Join(dir, "seg-000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	corrupt := bytes.Replace(lines[1], []byte(`{"v":1}`), []byte(`{"v":9}`), 1)
	if bytes.Equal(corrupt, lines[1]) {
		t.Fatal("test setup: payload not found in record line")
	}
	if err := os.WriteFile(seg, append(append([]byte{}, lines[0]...), corrupt...), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	if _, _, ok := s2.Get(k0); !ok {
		t.Fatal("valid prefix record lost")
	}
	if _, _, ok := s2.Get(k1); ok {
		t.Fatal("CRC-corrupt record served as a hit")
	}
	if st := s2.Stats(); st.Recovered != 1 || st.DroppedBytes != uint64(len(corrupt)) {
		t.Fatalf("stats = %+v, want 1 recovered and %d dropped bytes", st, len(corrupt))
	}
}

func appendFile(t *testing.T, path, data string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(data); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentRotationAndTrim(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.SetMaxSegmentBytes(256)
	payload := []byte(`{"pad":"` + strings.Repeat("x", 100) + `"}`)
	const n = 12
	for i := 0; i < n; i++ {
		if err := s.Put(CellKey("s", "t3", i), payload, Provenance{Cell: i}); err != nil {
			t.Fatal(err)
		}
	}

	removed, err := s.Trim(600)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("Trim removed nothing")
	}
	// Early keys are evicted with their segments; the newest survive.
	if _, _, ok := s.Get(CellKey("s", "t3", 0)); ok {
		t.Fatal("oldest key survived Trim")
	}
	if _, _, ok := s.Get(CellKey("s", "t3", n-1)); !ok {
		t.Fatal("newest key evicted by Trim")
	}
	// Evicted keys re-fill transparently.
	if err := s.Put(CellKey("s", "t3", 0), payload, Provenance{}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get(CellKey("s", "t3", 0)); !ok {
		t.Fatal("re-filled key missing")
	}
}

// TestDoSingleflight proves N concurrent Do calls for one missing key
// collapse into a single computation (run under -race in CI).
func TestDoSingleflight(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := CellKey("s", "t3", 0)
	const n = 16
	var computes atomic.Int64
	var release sync.WaitGroup
	release.Add(1)
	outcomes := make([]Outcome, n)
	payloads := make([][]byte, n)
	var wg sync.WaitGroup
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			payload, _, outcome, err := s.Do(context.Background(), key, func() ([]byte, Provenance, error) {
				computes.Add(1)
				release.Wait() // hold the flight open until every caller is in
				return []byte(`{"v":42}`), Provenance{}, nil
			})
			if err != nil {
				t.Error(err)
			}
			outcomes[i], payloads[i] = outcome, payload
		}(i)
	}
	for i := 0; i < n; i++ {
		<-started
	}
	release.Done()
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	leaders, sharers, hits := 0, 0, 0
	for i, o := range outcomes {
		if string(payloads[i]) != `{"v":42}` {
			t.Fatalf("caller %d payload = %q", i, payloads[i])
		}
		switch o {
		case Computed:
			leaders++
		case SharedFlight:
			sharers++
		case Hit:
			hits++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want exactly 1 (sharers=%d hits=%d)", leaders, sharers, hits)
	}
	// Callers that raced in before the leader registered resolve as Hit
	// after the Put; everyone else shared the flight.
	if st := s.Stats(); st.Shared != uint64(sharers) {
		t.Fatalf("Stats.Shared = %d, want %d", st.Shared, sharers)
	}

	// The key is now resident: another Do is a pure hit.
	_, _, outcome, err := s.Do(context.Background(), key, func() ([]byte, Provenance, error) {
		t.Fatal("compute ran for a resident key")
		return nil, Provenance{}, nil
	})
	if err != nil || outcome != Hit {
		t.Fatalf("Do on resident key = %v, %v; want Hit", outcome, err)
	}
}

// TestDoRechecksIndexBeforeLeading forces the interleaving in which a
// leader stores its result and ends its flight between another caller's
// index miss and that caller's flight check. The second caller finds no
// flight then, and must still take the stored record as a hit instead of
// leading a duplicate computation.
func TestDoRechecksIndexBeforeLeading(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	const key = "k"
	var computes atomic.Int32
	compute := func(gate <-chan struct{}) func() ([]byte, Provenance, error) {
		return func() ([]byte, Provenance, error) {
			computes.Add(1)
			<-gate
			return []byte(`"v"`), Provenance{}, nil
		}
	}

	started, release, leaderDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(leaderDone)
		lead := compute(release)
		_, _, out, err := s.Do(context.Background(), key, func() ([]byte, Provenance, error) {
			close(started)
			return lead()
		})
		if err != nil || out != Computed {
			t.Errorf("leader: %v, %v; want computed", out, err)
		}
	}()
	<-started
	// The leader is inside compute, past the hook. Stall the second caller
	// right after its index miss until the leader has stored and
	// unregistered its flight.
	var once sync.Once
	s.afterMiss = func(string) {
		once.Do(func() {
			close(release)
			<-leaderDone
		})
	}
	got, _, out, err := s.Do(context.Background(), key, compute(leaderDone))
	if err != nil {
		t.Fatal(err)
	}
	if out != Hit || string(got) != `"v"` {
		t.Errorf("second caller: %v with %q, want a hit on the leader's record", out, got)
	}
	if n, puts := computes.Load(), s.Stats().Puts; n != 1 || puts != 1 {
		t.Errorf("%d computes and %d puts, want 1 each", n, puts)
	}
}

func TestDoComputeErrorStoresNothing(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := CellKey("s", "t3", 0)
	wantErr := fmt.Errorf("boom")
	if _, _, _, err := s.Do(context.Background(), key, func() ([]byte, Provenance, error) {
		return nil, Provenance{}, wantErr
	}); err != wantErr {
		t.Fatalf("Do error = %v, want %v", err, wantErr)
	}
	if _, _, ok := s.Get(key); ok {
		t.Fatal("failed compute left a record behind")
	}
	// The key stays computable after a failure.
	if _, _, outcome, err := s.Do(context.Background(), key, func() ([]byte, Provenance, error) {
		return []byte(`{"v":1}`), Provenance{}, nil
	}); err != nil || outcome != Computed {
		t.Fatalf("retry after failed compute = %v, %v", outcome, err)
	}
}

// TestDoPanicUnregistersFlight: a panicking compute must still tear the
// flight down — the panic recovery machinery (the sweep engine's
// PanicError conversion) sits outside Do, so without the deferred
// cleanup every later Do on the key would block forever on a flight
// whose leader is gone.
func TestDoPanicUnregistersFlight(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := CellKey("s", "t3", 0)
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the compute panic to reach the leader", r)
			}
		}()
		s.Do(context.Background(), key, func() ([]byte, Provenance, error) {
			panic("boom")
		})
		t.Fatal("Do returned instead of panicking")
	}()
	// The key must be computable again — and without blocking: a leaked
	// flight would hang this Do on a done channel that never closes.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, outcome, err := s.Do(context.Background(), key, func() ([]byte, Provenance, error) {
			return []byte(`{"v":1}`), Provenance{}, nil
		}); err != nil || outcome != Computed {
			t.Errorf("Do after panic = %v, %v; want a fresh Computed", outcome, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Do after a panicked compute blocked: flight leaked")
	}
}

// TestDoWaiterHonorsOwnContext: a waiter joined to a hung leader's
// flight must give up when its own context expires instead of inheriting
// the hang (the sweep's CellTimeout retry path depends on this).
func TestDoWaiterHonorsOwnContext(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := CellKey("s", "t3", 0)
	computing := make(chan struct{})
	release := make(chan struct{})
	go s.Do(context.Background(), key, func() ([]byte, Provenance, error) {
		close(computing)
		<-release // the "hung" simulation
		return []byte(`{"v":1}`), Provenance{}, nil
	})
	<-computing
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, _, err := s.Do(ctx, key, func() ([]byte, Provenance, error) {
		t.Error("waiter ran compute while the leader's flight was open")
		return nil, Provenance{}, nil
	})
	if err != context.DeadlineExceeded {
		t.Fatalf("waiter error = %v, want its own DeadlineExceeded", err)
	}
	close(release)
}

// TestDoWaiterRetriesAfterLeaderFailure: a leader's failure (its own
// cancellation, say) must not be adopted by waiters — the next caller
// becomes a new leader and runs its own attempt.
func TestDoWaiterRetriesAfterLeaderFailure(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := CellKey("s", "t3", 0)
	computing := make(chan struct{})
	release := make(chan struct{})
	go s.Do(context.Background(), key, func() ([]byte, Provenance, error) {
		close(computing)
		<-release
		return nil, Provenance{}, context.Canceled // leader abandoned by its watchdog
	})
	<-computing
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		payload, _, outcome, err := s.Do(context.Background(), key, func() ([]byte, Provenance, error) {
			return []byte(`{"v":2}`), Provenance{}, nil
		})
		if err != nil || outcome != Computed || string(payload) != `{"v":2}` {
			t.Errorf("waiter after leader failure = %q, %v, %v; want its own Computed result", payload, outcome, err)
		}
	}()
	close(release)
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never re-led after the leader failed")
	}
}

func TestObserverCallbacks(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	var gets, hits, puts atomic.Int64
	s.SetObserver(Observer{
		OnGet: func(hit bool, seconds float64) {
			gets.Add(1)
			if hit {
				hits.Add(1)
			}
			if seconds < 0 {
				t.Error("negative get latency")
			}
		},
		OnPut: func(seconds float64) { puts.Add(1) },
	})
	key := CellKey("s", "t3", 0)
	s.Get(key)
	if err := s.Put(key, []byte(`{}`), Provenance{}); err != nil {
		t.Fatal(err)
	}
	s.Get(key)
	if gets.Load() != 2 || hits.Load() != 1 || puts.Load() != 1 {
		t.Fatalf("observer saw gets=%d hits=%d puts=%d", gets.Load(), hits.Load(), puts.Load())
	}
}

func TestScopeAndCellKeyAreStable(t *testing.T) {
	a := Scope("cfg", 60000, 0, []string{"go", "li"})
	b := Scope("cfg", 60000, 0, []string{"go", "li"})
	if a != b || len(a) != 64 {
		t.Fatalf("Scope unstable or not sha256 hex: %q vs %q", a, b)
	}
	if Scope("cfg", 60000, 0, []string{"go"}) == a {
		t.Fatal("workload set not part of the scope")
	}
	if Scope("cfg", 50000, 0, []string{"go", "li"}) == a {
		t.Fatal("instruction budget not part of the scope")
	}
	if CellKey(a, "t3", 1) == CellKey(a, "t3", 2) || CellKey(a, "t3", 1) == CellKey(a, "t4", 1) {
		t.Fatal("cell keys collide across cells or experiments")
	}
}

func TestPayloadIsolation(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := CellKey("s", "t3", 0)
	buf := []byte(`{"v":1}`)
	if err := s.Put(key, buf, Provenance{}); err != nil {
		t.Fatal(err)
	}
	buf[5] = '9' // caller reuses its buffer
	got, _, _ := s.Get(key)
	var v struct{ V int }
	if err := json.Unmarshal(got, &v); err != nil || v.V != 1 {
		t.Fatalf("stored payload aliased the caller's buffer: %q", got)
	}
}

// TestPutFaultIsIOError: the deterministic fault seam surfaces as an
// *IOError — the marker the experiments layer keys degraded mode on —
// while compute/validation/lifecycle errors do not.
func TestPutFaultIsIOError(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	calls := 0
	s.SetPutFault(func() error {
		calls++
		if calls > 1 {
			return fmt.Errorf("disk full")
		}
		return nil
	})
	if err := s.Put(CellKey("s", "t3", 0), []byte(`{"v":1}`), Provenance{}); err != nil {
		t.Fatalf("first put (fault armed but passing): %v", err)
	}
	err := s.Put(CellKey("s", "t3", 1), []byte(`{"v":2}`), Provenance{})
	if !IsIO(err) {
		t.Fatalf("injected fault = %v, want an *IOError", err)
	}
	if err := s.Put("", nil, Provenance{}); IsIO(err) {
		t.Errorf("validation error classified as I/O: %v", err)
	}
	s.SetPutFault(nil)
	if err := s.Put(CellKey("s", "t3", 2), []byte(`{"v":3}`), Provenance{}); err != nil {
		t.Fatalf("put after clearing fault: %v", err)
	}
	s.Close()
	if err := s.Put(CellKey("s", "t3", 3), []byte(`{"v":4}`), Provenance{}); err != ErrClosed {
		t.Errorf("put on closed store = %v, want ErrClosed", err)
	} else if IsIO(err) {
		t.Error("ErrClosed classified as I/O — shutdown would flip servers degraded")
	}
}

// TestDoPutFaultStillReturnsComputedResult: a leader whose simulation
// succeeded but whose Put hit an I/O fault surfaces the *IOError through
// Do with the flight cleanly ended — the caller (experiments.storeCell)
// recognizes IsIO and uses its own computed copy, so the distinction
// must survive the singleflight plumbing.
func TestDoPutFaultStillReturnsComputedResult(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	s.SetPutFault(func() error { return fmt.Errorf("no space left on device") })
	key := CellKey("s", "t3", 0)
	_, _, outcome, err := s.Do(context.Background(), key, func() ([]byte, Provenance, error) {
		return []byte(`{"v":1}`), Provenance{}, nil
	})
	if !IsIO(err) || outcome != Computed {
		t.Fatalf("Do under put fault = outcome %v err %v, want Computed with IOError", outcome, err)
	}
	// The failed flight must be unregistered: a retry with the fault
	// cleared computes fresh and persists.
	s.SetPutFault(nil)
	payload, _, outcome, err := s.Do(context.Background(), key, func() ([]byte, Provenance, error) {
		return []byte(`{"v":2}`), Provenance{}, nil
	})
	if err != nil || outcome != Computed || string(payload) != `{"v":2}` {
		t.Fatalf("retry after fault = %s/%v/%v", payload, outcome, err)
	}
}

// TestTrimConcurrentWithPutGet races segment eviction against live
// traffic: while writers Put fresh records (forcing rotations) and
// readers Get known keys, Trim repeatedly evicts oldest segments. The
// contract under -race: no Put errors, and every Get that reports ok
// returns exactly the bytes stored for that key — eviction during an
// active campaign may turn a hit into a miss, but never into a torn
// record or an error.
func TestTrimConcurrentWithPutGet(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.SetMaxSegmentBytes(512) // rotate constantly so Trim always has prey

	payloadFor := func(i int) []byte {
		return []byte(fmt.Sprintf(`{"cell":%d,"pad":"%s"}`, i, strings.Repeat("x", 64)))
	}
	const keys = 32
	for i := 0; i < keys; i++ {
		if err := s.Put(CellKey("trim", "t3", i), payloadFor(i), Provenance{}); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var putErr atomic.Value
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (i*2 + w) % keys
				if err := s.Put(CellKey("trim", "t3", k), payloadFor(k), Provenance{}); err != nil {
					putErr.Store(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (i*3 + r) % keys
				got, _, ok := s.Get(CellKey("trim", "t3", k))
				if ok && !bytes.Equal(got, payloadFor(k)) {
					putErr.Store(fmt.Errorf("torn record for cell %d: %q", k, got))
					return
				}
			}
		}(r)
	}
	deadline := time.After(300 * time.Millisecond)
	for {
		if _, err := s.Trim(1024); err != nil {
			t.Fatalf("trim during live traffic: %v", err)
		}
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			if err := putErr.Load(); err != nil {
				t.Fatal(err)
			}
			// The survivors must re-open clean: no dropped bytes, and
			// every resident key still round-trips.
			s.Close()
			s2 := mustOpen(t, dir)
			if s2.Stats().DroppedBytes != 0 {
				t.Fatalf("trim left corruption: %+v", s2.Stats())
			}
			for i := 0; i < keys; i++ {
				if got, _, ok := s2.Get(CellKey("trim", "t3", i)); ok && !bytes.Equal(got, payloadFor(i)) {
					t.Fatalf("cell %d torn after reopen: %q", i, got)
				}
			}
			return
		default:
		}
	}
}
