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
// Claim orders concurrent callers in-process: a caller holds a key until
// it releases it, and every other caller of the key waits, under its own
// context, meanwhile. A sweep holds one claim on its scope and experiment
// around its lookups and simulations, so a concurrent identical sweep
// waits, then finds every cell the holder stored: no cell is simulated
// twice, and a holder that fails or is canceled just stores less.
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
	// records. Shared counts Claim callers that waited for another
	// caller's hold.
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
	// OnShared fires when a Claim caller starts waiting for another
	// caller's hold.
	OnShared func()
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

	claimMu sync.Mutex
	claims  map[string]chan struct{} // held keys; each channel closes on release
}

// Open opens (creating if needed) the store rooted at dir, loading every
// segment's valid prefix into the in-memory index (see seglog.Open).
func Open(dir string) (*Store, error) {
	s := &Store{tool: "resultstore", index: map[string]entry{}, claims: map[string]chan struct{}{}}
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
	s.mu.Lock()
	e, ok := s.index[key]
	s.mu.Unlock()
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

// Claim makes the caller key's holder. While another caller holds key,
// Claim waits for it, giving up with ctx.Err() when ctx ends first. It
// returns release, which ends the hold and must be called once, and
// whether it waited; a caller that waits counts once in Stats().Shared.
// A claim orders callers and guards nothing else: Get and Put ignore it.
func (s *Store) Claim(ctx context.Context, key string) (release func(), waited bool, err error) {
	for {
		s.claimMu.Lock()
		held, ok := s.claims[key]
		if !ok {
			done := make(chan struct{})
			s.claims[key] = done
			s.claimMu.Unlock()
			return func() {
				s.claimMu.Lock()
				delete(s.claims, key)
				s.claimMu.Unlock()
				close(done)
			}, waited, nil
		}
		s.claimMu.Unlock()
		if !waited {
			waited = true
			s.shared.Add(1)
			if s.obs.OnShared != nil {
				s.obs.OnShared()
			}
		}
		select {
		case <-held:
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
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
