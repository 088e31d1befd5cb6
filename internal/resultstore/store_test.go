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

// TestClaimExcludes proves a claim orders its callers (run under -race
// in CI): of 16 concurrent callers of one key, one holds it at a time and
// every caller gets it in turn; each caller that waited counts once as
// Shared and fires OnShared once; another key is never held up by it.
func TestClaimExcludes(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	var observed atomic.Int64
	s.SetObserver(Observer{OnShared: func() { observed.Add(1) }})
	const key, n = "sweep", 16
	first, _, err := s.Claim(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	var holders, holds, waits atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, waited, err := s.Claim(context.Background(), key)
			if err != nil {
				t.Error(err)
				return
			}
			if holders.Add(1) != 1 {
				t.Error("two callers hold one key")
			}
			holds.Add(1)
			if waited {
				waits.Add(1)
			}
			time.Sleep(time.Millisecond)
			holders.Add(-1)
			release()
		}()
	}
	// Another key is free while this one is held.
	other, waited, err := s.Claim(context.Background(), "other")
	if err != nil || waited {
		t.Fatalf("claim of a free key = waited %v, %v", waited, err)
	}
	other()
	for s.Stats().Shared < n { // every caller queues up behind the first hold
		time.Sleep(time.Millisecond)
	}
	first()
	wg.Wait()

	if holds.Load() != n || waits.Load() != n {
		t.Fatalf("%d of %d callers got the claim, %d after waiting", holds.Load(), n, waits.Load())
	}
	if st := s.Stats(); st.Shared != n || observed.Load() != n {
		t.Fatalf("Stats.Shared = %d and OnShared fired %d times, want %d each (one per waiting caller)",
			st.Shared, observed.Load(), n)
	}
	// Released, the key is free again.
	release, waited, err := s.Claim(context.Background(), key)
	if err != nil || waited {
		t.Fatalf("claim after every release = waited %v, %v", waited, err)
	}
	release()
}

// TestClaimWaiterHonorsOwnContext: a caller waiting for a hung holder
// gives up when its own context expires instead of inheriting the hang
// (the sweep's bounded wait under the cell watchdog depends on this).
func TestClaimWaiterHonorsOwnContext(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	release, _, err := s.Claim(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, waited, err := s.Claim(ctx, "k"); err != context.DeadlineExceeded || !waited {
		t.Fatalf("waiter = waited %v, %v; want its own DeadlineExceeded after waiting", waited, err)
	}
}

// The three tests below keep the names they had under Store.Do, whose
// per-cell flights the sweep claim replaced. Each checks the claim's form
// of the same property: a holder that ends without storing anything (a
// failed, panicking or abandoned sweep, which releases in a defer) passes
// the key on, and the next caller runs its own attempt instead of adopting
// the holder's failure.

// TestDoComputeErrorStoresNothing: a sweep that fails before its Put
// releases its claim having stored nothing: no record is left behind, and
// the key is free at once for a fresh attempt, whose record reads back.
func TestDoComputeErrorStoresNothing(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := CellKey("s", "t3", 0)
	release, _, err := s.Claim(context.Background(), "sweep")
	if err != nil {
		t.Fatal(err)
	}
	release() // the sweep failed before storing its cell
	if _, _, ok := s.Get(key); ok || s.Len() != 0 || s.Stats().Puts != 0 {
		t.Fatalf("failed sweep left a record behind (len %d, %d puts)", s.Len(), s.Stats().Puts)
	}
	// The key stays claimable after a failure, without waiting; the bound
	// turns a leaked hold into a failure instead of a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	release, waited, err := s.Claim(ctx, "sweep")
	if err != nil || waited {
		t.Fatalf("claim after a failed sweep = waited %v, %v; want it free at once", waited, err)
	}
	defer release()
	if err := s.Put(key, []byte(`{"v":1}`), Provenance{}); err != nil {
		t.Fatal(err)
	}
	if got, _, ok := s.Get(key); !ok || string(got) != `{"v":1}` {
		t.Fatalf("retry's record = %q, %v; want {\"v\":1}", got, ok)
	}
}

// TestDoPanicUnregistersFlight: a holder that panics while another caller
// waits releases its claim in a defer; the panic reaches the holder's own
// caller unchanged, the waiter gets the claim and finds no record, and the
// key is claimable again afterwards without blocking (a leaked hold would
// hang the next caller on a channel that never closes).
func TestDoPanicUnregistersFlight(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := CellKey("s", "t3", 0)
	holding := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		release, _, err := s.Claim(context.Background(), "sweep")
		if err != nil {
			t.Error(err)
			return
		}
		defer release()
		close(holding)
		for s.Stats().Shared == 0 { // the second caller is waiting
			time.Sleep(time.Millisecond)
		}
		panic("boom")
	}()
	<-holding
	got := make(chan bool, 1)
	go func() {
		release, waited, err := s.Claim(context.Background(), "sweep")
		if err != nil {
			t.Error(err)
			got <- false
			return
		}
		defer release()
		if !waited {
			t.Error("the second caller did not wait for the holder")
		}
		_, _, ok := s.Get(key)
		got <- ok
	}()
	select {
	case ok := <-got:
		if ok {
			t.Fatal("a record appeared that no holder stored")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the claim was never passed on after the holder panicked")
	}
	if r := <-recovered; r != "boom" {
		t.Fatalf("holder recovered %v, want its own panic", r)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		release, waited, err := s.Claim(context.Background(), "sweep")
		if err != nil || waited {
			t.Errorf("claim after the panic = waited %v, %v; want it free at once", waited, err)
			return
		}
		release()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("claim after a panicked holder blocked: the hold leaked")
	}
}

// TestDoWaiterRetriesAfterLeaderFailure: a caller waiting on a holder
// whose sweep is abandoned (its watchdog fired, nothing stored) gets the
// claim after waiting, finds no record, and stores and reads back its own.
func TestDoWaiterRetriesAfterLeaderFailure(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := CellKey("s", "t3", 0)
	release, _, err := s.Claim(context.Background(), "sweep")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		release, waited, err := s.Claim(context.Background(), "sweep")
		if err != nil {
			t.Error(err)
			return
		}
		defer release()
		if !waited {
			t.Error("the second caller did not wait for the holder")
		}
		if _, _, ok := s.Get(key); ok {
			t.Error("a record appeared that no holder stored")
			return
		}
		if err := s.Put(key, []byte(`{"v":2}`), Provenance{}); err != nil {
			t.Error(err)
			return
		}
		if got, _, ok := s.Get(key); !ok || string(got) != `{"v":2}` {
			t.Errorf("waiter's own record = %q, %v; want {\"v\":2}", got, ok)
		}
	}()
	for s.Stats().Shared == 0 { // the second caller is waiting
		time.Sleep(time.Millisecond)
	}
	release() // the holder's sweep was abandoned with nothing stored
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the waiter never got the claim after the holder failed")
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
