// Package resultstore is the content-addressed cell-result cache behind
// warm sweep reruns: a sweep cell whose result-determining parameters hash
// to a key already in the store is answered from disk instead of
// simulated. Keys are sha256 content hashes (see Scope and CellKey), so
// two runs — or two users — asking for the same (configuration, budget,
// workload set, experiment, cell) tuple share one simulation.
//
// A store directory is an internal/seglog segment log: each record — key,
// provenance stamp (tool, time, scope), and payload — is one checksummed
// frame, fsynced before Put returns, and Open keeps every segment's valid
// prefix after a crash. Duplicate keys keep the latest record, so a
// corrupt or schema-drifted entry is healed by simply storing the cell
// again. A directory written before the store moved onto seglog holds
// lines that are not seglog frames; it replays once as an empty cache,
// with the lost bytes reported in Stats().DroppedBytes.
//
// Eviction is segment-granular: Trim drops whole oldest segments until
// the store fits a byte budget (the active segment is always kept), which
// is safe because every record is self-contained — a dropped key is
// re-simulated and re-appended on next use.
//
// Do layers in-process singleflight on top: N concurrent callers of the
// same missing key collapse into one computation, with the other N-1
// sharing the leader's result. Waiters honor their own context and never
// inherit a leader's failure (they retry as the new leader instead) —
// see Do. That is what keeps a server re-running hundreds of
// near-identical campaign cells from simulating any of them twice,
// without letting one canceled or crashed cell strand the rest.
package resultstore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"retstack/internal/seglog"
)

// ErrClosed reports an append against a closed store — the shutdown
// race a draining server cares about (a Put lost to ErrClosed means a
// campaign goroutine outlived the drain window).
var ErrClosed = errors.New("resultstore: store closed")

// IOError marks a storage-layer failure — a failed append (write, fsync,
// or segment rotation) — as opposed to a compute, validation, or lifecycle
// error. The distinction is what lets a caller degrade instead of fail:
// a simulation whose result could not be persisted is still a valid
// result, so the experiments layer returns it uncached and the server
// flips into compute-without-cache mode rather than failing campaigns
// on a full disk.
type IOError struct {
	Op  string // "append", "inject"
	Err error
}

func (e *IOError) Error() string { return fmt.Sprintf("resultstore: %s: %v", e.Op, e.Err) }
func (e *IOError) Unwrap() error { return e.Err }

// IsIO reports whether err is (or wraps) a storage I/O failure.
func IsIO(err error) bool {
	var io *IOError
	return errors.As(err, &io)
}

// Provenance stamps where a stored result came from. It rides on the
// record (and back out of Get), never inside the payload, so payload bytes
// stay a pure function of the key.
type Provenance struct {
	// Tool is the producing command ("rasbench", "rasserve").
	Tool string `json:"tool,omitempty"`
	// Time is the RFC3339 instant the record was appended.
	Time string `json:"time,omitempty"`
	// Scope is the content hash of the cell universe (see Scope).
	Scope string `json:"scope,omitempty"`
	// Exp and Cell locate the result inside its experiment sweep.
	Exp  string `json:"exp,omitempty"`
	Cell int    `json:"cell,omitempty"`
}

// record is one store entry, the payload of one seglog frame.
type record struct {
	Key     string          `json:"key"`
	Prov    *Provenance     `json:"prov,omitempty"`
	Payload json.RawMessage `json:"payload"`
}

// entry is one key's in-memory index slot.
type entry struct {
	payload []byte
	prov    Provenance
}

// Stats is a snapshot of the store's operation counters.
type Stats struct {
	// Hits and Misses count Get lookups by outcome; Puts counts appended
	// records. Shared counts Do callers that joined another caller's
	// in-flight computation instead of running their own.
	Hits   uint64
	Misses uint64
	Puts   uint64
	Shared uint64
	// Recovered counts records loaded at Open; DroppedBytes is how much
	// torn or unreadable data Open discarded across segments.
	Recovered    uint64
	DroppedBytes uint64
}

// Observer receives operation callbacks for telemetry. All fields are
// optional; callbacks fire outside the store lock and must be safe for
// concurrent use. Observation is strictly passive — it cannot affect what
// the store returns.
type Observer struct {
	// OnGet fires per lookup with the outcome and wall-clock seconds.
	OnGet func(hit bool, seconds float64)
	// OnPut fires per appended record with wall-clock seconds (including
	// the fsync).
	OnPut func(seconds float64)
	// OnShared fires when a Do caller shares an in-flight computation.
	OnShared func()
}

// flight is one in-progress Do computation other callers can join.
type flight struct {
	done    chan struct{}
	payload []byte
	prov    Provenance
	err     error
}

// flightShardCount sizes the singleflight shard table. Keys are sha256
// hex (uniform), so a small power of two spreads concurrent sweep workers
// across independent locks; 32 shards keep 16 workers essentially
// collision-free without meaningful memory cost.
const flightShardCount = 32

// flightShard is one slice of the in-flight computation table, with its
// own lock so concurrent Do callers on different keys never serialize on
// a store-wide mutex. The pad keeps adjacent shards' mutexes off one
// cache line.
type flightShard struct {
	mu sync.Mutex
	m  map[string]*flight
	_  [96]byte
}

// Store is an open result store. Safe for concurrent use.
type Store struct {
	tool   string
	obs    Observer
	hits   atomic.Uint64
	misses atomic.Uint64
	puts   atomic.Uint64
	shared atomic.Uint64
	recov  uint64

	mu       sync.Mutex
	log      *seglog.Log
	index    map[string]entry
	closed   bool
	putFault func() error // deterministic I/O fault seam (see SetPutFault)

	// afterMiss, when set, runs in Do between its index miss and taking
	// the flight-shard lock: the gap a finishing leader can fall into. A
	// test sets it while no Do can reach that point.
	afterMiss func(key string)

	flights [flightShardCount]flightShard
}

// flightShardFor maps key to its singleflight shard (FNV-1a; keys are
// already uniform content hashes, but FNV keeps arbitrary test keys
// spreading too).
func (s *Store) flightShardFor(key string) *flightShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &s.flights[h%flightShardCount]
}

// Open opens (creating if needed) the store rooted at dir, loading every
// segment's valid prefix into the in-memory index (see seglog.Open).
func Open(dir string) (*Store, error) {
	s := &Store{tool: "resultstore", index: map[string]entry{}}
	for i := range s.flights {
		s.flights[i].m = map[string]*flight{}
	}
	log, err := seglog.Open(dir, func(payload []byte) {
		if load(s.index, payload) {
			s.recov++
		}
	})
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s.log = log
	return s, nil
}

// load indexes one replayed record, reporting whether it was one: a
// payload that does not decode as a record is skipped.
func load(index map[string]entry, payload []byte) bool {
	var r record
	if json.Unmarshal(payload, &r) != nil || r.Key == "" || r.Payload == nil {
		return false
	}
	var prov Provenance
	if r.Prov != nil {
		prov = *r.Prov
	}
	index[r.Key] = entry{payload: r.Payload, prov: prov}
	return true
}

// SetTool names the producing tool stamped into Put provenance.
func (s *Store) SetTool(tool string) { s.tool = tool }

// SetObserver attaches telemetry callbacks (see Observer).
func (s *Store) SetObserver(obs Observer) { s.obs = obs }

// SetMaxSegmentBytes overrides the rotation threshold (testing knob).
func (s *Store) SetMaxSegmentBytes(n int64) { s.log.SetMaxSegmentBytes(n) }

// SetPutFault installs a deterministic I/O fault: every subsequent Put
// consults f before touching the disk and fails with an *IOError when f
// returns one. Nil clears the fault. This is the store's analogue of
// internal/faultinject — disk-full and torn-write failures are hard to
// provoke on a healthy filesystem, and the degraded-mode contract
// (campaigns complete uncached instead of failing) needs them on demand
// in tests and smoke jobs.
func (s *Store) SetPutFault(f func() error) {
	s.mu.Lock()
	s.putFault = f
	s.mu.Unlock()
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.log.Dir() }

// Len returns the number of distinct keys resident in the index.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats snapshots the operation counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Puts:         s.puts.Load(),
		Shared:       s.shared.Load(),
		Recovered:    s.recov,
		DroppedBytes: s.log.DroppedBytes(),
	}
}

// Get returns the payload and provenance stored under key.
func (s *Store) Get(key string) ([]byte, Provenance, bool) {
	start := time.Now()
	e, ok := s.lookup(key)
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	if s.obs.OnGet != nil {
		s.obs.OnGet(ok, time.Since(start).Seconds())
	}
	return e.payload, e.prov, ok
}

// Prov returns the provenance stamp stored under key without counting a
// lookup — for observers (rasserve's cell_cached events) that annotate a
// hit the sweep already counted.
func (s *Store) Prov(key string) (Provenance, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[key]
	return e.prov, ok
}

// Put appends one record under key and fsyncs it. The store fills the
// provenance stamp's Tool and Time; the caller supplies the rest. A
// re-Put of an existing key appends a fresh record and the index keeps
// the newest — that is also the self-healing path for schema drift.
func (s *Store) Put(key string, payload []byte, prov Provenance) error {
	start := time.Now()
	if key == "" {
		return fmt.Errorf("resultstore: empty key")
	}
	if prov.Tool == "" {
		prov.Tool = s.tool
	}
	if prov.Time == "" {
		prov.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	rec, err := json.Marshal(record{Key: key, Prov: &prov, Payload: payload})
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.putFault != nil {
		if ferr := s.putFault(); ferr != nil {
			return &IOError{Op: "inject", Err: ferr}
		}
	}
	if err := s.log.Append(rec); err != nil {
		return &IOError{Op: "append", Err: err}
	}
	// The index owns its payload bytes: callers may reuse theirs.
	cp := make([]byte, len(payload))
	copy(cp, payload)
	s.index[key] = entry{payload: cp, prov: prov}
	s.puts.Add(1)
	if s.obs.OnPut != nil {
		s.obs.OnPut(time.Since(start).Seconds())
	}
	return nil
}

// Outcome classifies how Do resolved a key.
type Outcome uint8

const (
	// Computed: this caller led the computation and stored the result.
	Computed Outcome = iota
	// Hit: the key was already resident.
	Hit
	// SharedFlight: another caller was already computing the key; this
	// caller waited and shares that result.
	SharedFlight
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case SharedFlight:
		return "shared"
	default:
		return "computed"
	}
}

// Do resolves key: from the index if resident, from another caller's
// in-flight computation if one is running, else by invoking compute and
// storing its result. Exactly one compute runs per key at a time — N
// concurrent callers of the same missing key produce one computation.
// A failed compute stores nothing.
//
// ctx bounds only the waiting, never the computing: a caller that joins
// another caller's flight gives up with ctx.Err() when its own context
// expires, so a hung or abandoned leader cannot strand it (compute is
// expected to honor its own context). A leader failure — error or panic
// — is not adopted by waiters either: each re-enters and the first
// becomes the new leader with its own attempt, so one caller's
// cancellation (a sweep cell watchdog firing, say) cannot poison every
// concurrent caller of the key. The flight is unregistered and waiters
// woken even when compute panics; the panic then resumes unwinding
// toward the leader's own recovery machinery.
//
// Do assumes the caller already observed (and counted) a Get miss, so it
// does not count another; a key that became resident in the meantime
// counts as a hit.
//
// Flights live in a sharded table (key-hashed, per-shard locks) so
// concurrent sweep workers resolving different keys never serialize on
// one singleflight mutex. The first index check runs without the shard
// lock, so a leader can store the key and end its flight before this
// caller takes it; the index is therefore checked again under the shard
// lock before a new flight is registered. A leader stores before it
// unregisters, and unregistering takes the shard lock, so that second
// check sees its record. Lock order is shard then index: no path takes
// the index lock and then a shard lock.
func (s *Store) Do(ctx context.Context, key string, compute func() ([]byte, Provenance, error)) ([]byte, Provenance, Outcome, error) {
	sh := s.flightShardFor(key)
	for {
		if e, ok := s.lookup(key); ok {
			return s.hit(e)
		}
		if s.afterMiss != nil {
			s.afterMiss(key)
		}
		sh.mu.Lock()
		if f, ok := sh.m[key]; ok {
			sh.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, Provenance{}, SharedFlight, ctx.Err()
			}
			if f.err != nil {
				// The leader failed — possibly just its own cancellation.
				// Retry (becoming the new leader) rather than adopt it.
				if err := ctx.Err(); err != nil {
					return nil, Provenance{}, SharedFlight, err
				}
				continue
			}
			s.shared.Add(1)
			if s.obs.OnShared != nil {
				s.obs.OnShared()
			}
			return f.payload, f.prov, SharedFlight, nil
		}
		if e, ok := s.lookup(key); ok {
			sh.mu.Unlock()
			return s.hit(e)
		}
		f := &flight{done: make(chan struct{})}
		sh.m[key] = f
		sh.mu.Unlock()
		s.lead(key, f, compute)
		return f.payload, f.prov, Computed, f.err
	}
}

// lookup reads key's index entry without counting the lookup.
func (s *Store) lookup(key string) (entry, bool) {
	s.mu.Lock()
	e, ok := s.index[key]
	s.mu.Unlock()
	return e, ok
}

// hit counts a Do that found its key resident and returns the entry.
func (s *Store) hit(e entry) ([]byte, Provenance, Outcome, error) {
	s.hits.Add(1)
	if s.obs.OnGet != nil {
		s.obs.OnGet(true, 0)
	}
	return e.payload, e.prov, Hit, nil
}

// lead runs compute as flight f's leader and persists a successful
// result. The deferred cleanup runs on every exit path — including a
// compute panic, an anticipated failure mode since the sweep engine's
// panic recovery sits outside Do — so the flight is always unregistered
// and waiters always wake instead of blocking on f.done forever.
func (s *Store) lead(key string, f *flight, compute func() ([]byte, Provenance, error)) {
	defer func() {
		if r := recover(); r != nil {
			f.err = fmt.Errorf("resultstore: compute for %s panicked: %v", key, r)
			s.endFlight(key, f)
			panic(r)
		}
		s.endFlight(key, f)
	}()
	f.payload, f.prov, f.err = compute()
	if f.err == nil {
		if err := s.Put(key, f.payload, f.prov); err != nil {
			f.err = err
		}
	}
}

// endFlight unregisters the flight and wakes its waiters. The close
// happens after the delete so a caller can never observe a closed flight
// still registered.
func (s *Store) endFlight(key string, f *flight) {
	sh := s.flightShardFor(key)
	sh.mu.Lock()
	delete(sh.m, key)
	sh.mu.Unlock()
	close(f.done)
}

// Trim evicts oldest rotated segments until the store's total size fits
// maxBytes, rebuilding the index from the survivors. The active segment is
// never removed. Returns the number of segments deleted.
func (s *Store) Trim(maxBytes int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Rebuild the index from the surviving segments: keys whose latest
	// record lived in an evicted segment disappear (and re-fill on use).
	index := map[string]entry{}
	removed, err := s.log.Trim(maxBytes, func(payload []byte) { load(index, payload) })
	if removed > 0 && err == nil {
		s.index = index
	}
	return removed, err
}

// Close closes the store's log. Further Puts fail; Gets keep serving the
// in-memory index.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.log.Close()
}

// Scope derives the content hash identifying a cell universe: the
// result-determining run parameters shared by every cell — the resolved
// machine configuration, instruction budget, warmup, and workload set.
// Deliberately excluded: the experiment selection (so `-exp t3` and
// `-exp all` runs share cells — the experiment id is part of CellKey
// instead) and the observational knobs (parallelism, telemetry, tracing),
// which are pinned byte-identical elsewhere.
func Scope(config string, instBudget, warmup uint64, workloads []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "config:%s\ninsts:%d\nwarmup:%d\nworkloads:%s\n",
		config, instBudget, warmup, strings.Join(workloads, ","))
	return hex.EncodeToString(h.Sum(nil))
}

// CellKey is the content address of one sweep cell: the scope hash plus
// the experiment id and the cell's index within that experiment's
// deterministic cell enumeration.
func CellKey(scope, exp string, cell int) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d", scope, exp, cell)
	return hex.EncodeToString(h.Sum(nil))
}
