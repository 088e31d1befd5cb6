// Command rasserve promotes the sweep engine into a long-running service:
// submit experiment campaigns over HTTP/JSON, shard their cells across the
// worker pool, and stream per-cell progress and results back as JSONL or
// SSE. Every campaign runs lookup-before-simulate against one shared
// content-addressed result store, so a resubmitted campaign answers from
// cache — and concurrent campaigns racing on the same cells collapse to a
// single simulation via the store's singleflight.
//
// The campaign queue is durable: with -queue set, every submission, state
// transition, rendered table, and terminal status is appended crash-safely
// to a write-ahead campaign log (internal/campaignlog). A restarted server
// replays the log, serves finished campaigns' tables and status from it,
// and re-adopts submitted-but-unfinished campaigns — requeueing them with
// a bumped attempt counter. Re-execution is cheap and byte-identical
// because the cells that finished before the crash are result-store hits.
//
// Serving degrades instead of failing: a per-campaign cell-error policy
// (on_cell_error: abort|skip) turns experiment errors into explicit holes
// rather than dead campaigns, and a result-store I/O fault (disk
// full, failed fsync) flips the server into compute-without-cache mode —
// campaigns keep completing, cell_cached provenance just stops — surfaced
// on /healthz, /readyz, and the retstack_server_degraded gauge.
//
// Usage:
//
//	rasserve -store cache/ -queue queue/          # durable; serve on :8372
//	rasserve -store cache/ -addr :9000 -parallel 8 -max-active 2
//	rasserve -store cache/ -store-max-bytes 67108864  # evict after each campaign
//
// Endpoints:
//
//	GET  /healthz                  liveness + degraded-mode report
//	GET  /readyz                   readiness + boot recovery counters
//	GET  /experiments              reproducible artifacts (id + title)
//	POST /campaigns                submit {"exps":["t3"],"insts":60000,"workloads":["go","li"],
//	                                       "on_cell_error":"skip","cell_timeout_ms":60000}
//	GET  /campaigns                all campaigns, submission order
//	GET  /campaigns/{id}           one campaign's status and counters
//	GET  /campaigns/{id}/results   stream events as JSONL (?sse=1 for SSE;
//	                               ?from=N or Last-Event-ID resume an offset)
//	GET  /campaigns/{id}/tables    rendered tables once completed
//	GET  /metrics                  Prometheus exposition (retstack_store_*, retstack_queue_*, ...)
//	GET  /debug/pprof/             runtime profiles
//
// Exit status: 0 on a clean drain; 1 when the shutdown drain times out
// with campaigns still running (their in-flight Puts may have been lost —
// the campaign log will re-adopt them on the next boot).
//
// See README "Serving & caching" and EXPERIMENTS.md for a worked curl
// session, including reconnecting a dropped stream with Last-Event-ID.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"retstack"
	"retstack/internal/campaignlog"
	"retstack/internal/experiments"
	"retstack/internal/resultstore"
	"retstack/internal/sweep"
	"retstack/internal/telemetry"
	"retstack/internal/workloads"
)

func main() {
	var (
		addr          = flag.String("addr", ":8372", "listen address")
		storePath     = flag.String("store", "", "content-addressed result store directory (required)")
		queuePath     = flag.String("queue", "", "durable campaign log directory (empty: campaigns do not survive restarts)")
		parallel      = flag.Int("parallel", runtime.GOMAXPROCS(0), "simulations to run concurrently per campaign")
		maxActive     = flag.Int("max-active", 2, "campaigns simulating at once; the rest queue")
		storeMaxBytes = flag.Int64("store-max-bytes", 0, "evict oldest store segments past this size after each campaign (0 = never)")
		heartbeat     = flag.Duration("heartbeat", 15*time.Second, "result-stream heartbeat period (keeps idle subscribers alive, evicts dead ones)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for running campaigns before closing the store")
	)
	flag.Parse()
	if *storePath == "" {
		fmt.Fprintln(os.Stderr, "rasserve: -store is required")
		os.Exit(2)
	}
	store, err := resultstore.Open(*storePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rasserve:", err)
		os.Exit(1)
	}
	store.SetTool("rasserve")
	var qlog *campaignlog.Log
	if *queuePath != "" {
		qlog, err = campaignlog.Open(*queuePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rasserve:", err)
			os.Exit(1)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := newServer(ctx, store, qlog, *parallel, *maxActive)
	srv.storeMaxBytes = *storeMaxBytes
	srv.heartbeat = *heartbeat
	recovered, requeued := srv.recover()
	if qlog != nil {
		st := qlog.Stats()
		fmt.Fprintf(os.Stderr, "rasserve: queue %s: %d records replayed, %d campaign(s) re-adopted, %d requeued",
			qlog.Dir(), st.Records, recovered, requeued)
		if st.DroppedBytes > 0 {
			fmt.Fprintf(os.Stderr, " (%d torn bytes dropped)", st.DroppedBytes)
		}
		fmt.Fprintln(os.Stderr)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rasserve:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "rasserve: store %s (%d cached cells", store.Dir(), store.Len())
	if dropped := store.Stats().DroppedBytes; dropped > 0 {
		fmt.Fprintf(os.Stderr, ", %d torn bytes dropped", dropped)
	}
	fmt.Fprintf(os.Stderr, "); listening on http://%s\n", ln.Addr())
	hs := &http.Server{Handler: srv.handler()}
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(sctx) //nolint:errcheck // best-effort drain
	}()
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "rasserve:", err)
		os.Exit(1)
	}
	// The listener is drained, but campaign goroutines may still be
	// finishing cells: wait (bounded) before closing the store so a
	// leader's final Put lands instead of failing with "store closed" and
	// turning a clean shutdown into a lost result. The signal already
	// canceled ctx, so queued campaigns park without a terminal status
	// (the campaign log re-adopts them on the next boot) and running
	// sweeps stop claiming new cells — only in-flight cells remain.
	exit := 0
	if !srv.drain(*drainTimeout) {
		still := srv.unfinished()
		fmt.Fprintf(os.Stderr, "rasserve: shutdown: %d campaign(s) still running after %s: %s; closing store anyway (in-flight Puts may be lost)\n",
			len(still), *drainTimeout, strings.Join(still, ", "))
		exit = 1
	}
	if err := store.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "rasserve:", err)
		exit = 1
	}
	if qlog != nil {
		if err := qlog.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "rasserve:", err)
			exit = 1
		}
	}
	os.Exit(exit)
}

// campaignSpec is the POST /campaigns request body. on_cell_error and
// cell_timeout_ms are experiments.Params' failure policy surfaced per
// campaign: "skip" turns a failing cell into an explicit hole in the
// tables instead of a dead experiment, and the timeout arms the per-cell
// watchdog.
type campaignSpec struct {
	Exps          []string      `json:"exps"`
	Insts         uint64        `json:"insts,omitempty"`
	Warmup        uint64        `json:"warmup,omitempty"`
	Workloads     []string      `json:"workloads,omitempty"`
	OnCellError   sweep.OnError `json:"on_cell_error,omitempty"`
	CellTimeoutMS int64         `json:"cell_timeout_ms,omitempty"`
}

// campaign is one submitted sweep: its normalized spec, the event stream
// subscribers replay, and the rendered tables. Events are append-only;
// notify closes and is replaced on every append, so any number of
// streaming subscribers wake without polling.
type campaign struct {
	ID         string
	Spec       campaignSpec
	ConfigHash string
	Scope      string
	Submitted  time.Time
	Recovered  bool // re-adopted from the campaign log at boot

	mu       sync.Mutex
	status   string
	attempt  int
	errMsg   string
	events   []json.RawMessage
	notify   chan struct{}
	tables   map[string]string
	cached   map[string]bool // "exp/cell" resolved from the store, not simulated
	hits     uint64
	shared   uint64
	executed uint64
	wall     float64
}

// terminal reports whether status names a finished campaign.
func terminal(status string) bool { return campaignlog.Terminal(status) }

// view is the lock-free snapshot rendered by the status endpoints.
type view struct {
	ID         string       `json:"id"`
	Status     string       `json:"status"`
	Attempt    int          `json:"attempt"`
	Recovered  bool         `json:"recovered,omitempty"`
	Error      string       `json:"error,omitempty"`
	Spec       campaignSpec `json:"spec"`
	ConfigHash string       `json:"config_hash"`
	Scope      string       `json:"scope"`
	Submitted  time.Time    `json:"submitted"`
	Hits       uint64       `json:"hits"`
	Shared     uint64       `json:"shared"`
	Executed   uint64       `json:"executed"`
	Wall       float64      `json:"wall_seconds"`
	Events     int          `json:"events"`
}

func (c *campaign) view() view {
	c.mu.Lock()
	defer c.mu.Unlock()
	return view{
		ID: c.ID, Status: c.status, Attempt: c.attempt, Recovered: c.Recovered,
		Error: c.errMsg, Spec: c.Spec,
		ConfigHash: c.ConfigHash, Scope: c.Scope, Submitted: c.Submitted,
		Hits: c.hits, Shared: c.shared, Executed: c.executed, Wall: c.wall,
		Events: len(c.events),
	}
}

// emit appends one event to the campaign stream and wakes subscribers.
func (c *campaign) emit(typ string, fields map[string]any) {
	ev := map[string]any{"event": typ, "time": time.Now().UTC().Format(time.RFC3339Nano)}
	for k, v := range fields {
		ev[k] = v
	}
	raw, err := json.Marshal(ev)
	if err != nil {
		return
	}
	c.mu.Lock()
	c.events = append(c.events, raw)
	close(c.notify)
	c.notify = make(chan struct{})
	c.mu.Unlock()
}

// next returns the events from index i on, whether the stream ends after
// them, and a channel that closes on the next append. done reports the
// terminal status alone: finish appends campaign_done atomically with the
// status flip, so a terminal snapshot always includes every remaining
// event — the caller drains evs and stops, never waiting on a notify
// channel that will not close again. An i beyond the stream (a resume
// offset from a longer-lived previous subscription) clamps to the end.
func (c *campaign) next(i int) ([]json.RawMessage, bool, <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i > len(c.events) {
		i = len(c.events)
	}
	evs := c.events[i:]
	done := terminal(c.status)
	return evs, done, c.notify
}

// campMonitor feeds sweep-cell lifecycle into the campaign stream. Cells
// spliced in before the sweep never reach the cell scheduler, so CellDone
// mostly counts actual simulations — the "executed" number a warm
// resubmit drives to zero. A cell can still resolve from the store
// *inside* the sweep (it became resident mid-campaign, or a shared
// flight): those fire both OnStoreHit and CellDone, so CellDone consults
// the campaign's cached set (written by OnStoreHit before the cell
// returns) and skips the executed counter for them.
type campMonitor struct {
	c   *campaign
	exp string
}

func (m *campMonitor) CellStart(cell, worker int) {}

func (m *campMonitor) CellDone(cell, worker int, d time.Duration, err error) {
	key := fmt.Sprintf("%s/%d", m.exp, cell)
	m.c.mu.Lock()
	cached := m.c.cached[key]
	if !cached {
		m.c.executed++
	}
	m.c.mu.Unlock()
	f := map[string]any{"exp": m.exp, "cell": cell, "worker": worker, "seconds": d.Seconds()}
	if cached {
		f["cached"] = true
	}
	if err != nil {
		f["error"] = err.Error()
	}
	m.c.emit("cell_done", f)
}

type server struct {
	ctx           context.Context
	store         *resultstore.Store
	qlog          *campaignlog.Log // nil: ephemeral queue
	reg           *telemetry.Registry
	qm            *telemetry.ServerMetrics
	parallel      int
	sem           chan struct{}
	storeMaxBytes int64
	heartbeat     time.Duration
	running       sync.WaitGroup // live campaign goroutines (see drain)

	ready      atomic.Bool // boot recovery finished; /readyz gates on it
	storeLost  atomic.Bool // store I/O fault: campaigns compute without caching
	degraded   atomic.Bool // any durability loss (store or campaign log)
	recoveredN atomic.Int64
	requeuedN  atomic.Int64

	degradedMu     sync.Mutex
	degradedReason string

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string
	nextID    int
}

func newServer(ctx context.Context, store *resultstore.Store, qlog *campaignlog.Log, parallel, maxActive int) *server {
	if maxActive < 1 {
		maxActive = 1
	}
	reg := telemetry.NewRegistry()
	if sm := telemetry.NewStoreMetrics(reg); sm != nil {
		store.SetObserver(resultstore.Observer{
			OnGet: sm.ObserveGet, OnPut: sm.ObservePut, OnShared: sm.ObserveShared,
		})
	}
	return &server{
		ctx: ctx, store: store, qlog: qlog, reg: reg,
		qm:        telemetry.NewServerMetrics(reg),
		parallel:  parallel,
		sem:       make(chan struct{}, maxActive),
		heartbeat: 15 * time.Second,
		campaigns: make(map[string]*campaign),
	}
}

// recover replays the campaign log: terminal campaigns register with
// their status and tables served straight from the log, non-terminal
// ones — submitted but never finished, from any number of crashes ago —
// are re-adopted and requeued with their attempt counter intact. Returns
// the recovered (re-adopted) and requeued counts. Must be called once,
// before the server takes traffic; it also flips /readyz to ready.
func (s *server) recover() (recovered, requeued int) {
	defer s.ready.Store(true)
	if s.qlog == nil {
		return 0, 0
	}
	for _, rc := range s.qlog.Campaigns() {
		c := &campaign{
			ID:         rc.ID,
			ConfigHash: rc.ConfigHash,
			Scope:      rc.Scope,
			status:     rc.Status,
			attempt:    rc.Attempt,
			errMsg:     rc.Error,
			notify:     make(chan struct{}),
			tables:     make(map[string]string, len(rc.Tables)),
			cached:     make(map[string]bool),
		}
		for exp, tbl := range rc.Tables {
			c.tables[exp] = tbl
		}
		if t, err := time.Parse(time.RFC3339Nano, rc.Submitted); err == nil {
			c.Submitted = t
		}
		// A spec that no longer decodes (one naming a retired cell-error
		// policy, say) cannot be re-run either; its decode error says why.
		specErr := "campaign log lost the spec"
		if rc.Spec != nil {
			specErr = ""
			if err := json.Unmarshal(rc.Spec, &c.Spec); err != nil {
				specErr = "campaign spec no longer decodes: " + err.Error()
			}
		}

		s.mu.Lock()
		if n, err := strconv.Atoi(strings.TrimPrefix(rc.ID, "c")); err == nil && n > s.nextID {
			s.nextID = n
		}
		s.campaigns[c.ID] = c
		s.order = append(s.order, c.ID)
		s.mu.Unlock()

		switch {
		case rc.Terminal():
			// Serve from the log alone: synthesize the result events a
			// live run would have streamed, then the terminal marker.
			for _, exp := range c.Spec.Exps {
				if tbl, ok := c.tables[exp]; ok {
					c.emit("result", map[string]any{"exp": exp, "table": tbl, "recovered": true})
				}
			}
			c.appendDone(rc.Status, rc.Error)
		case specErr != "":
			// The log lost the submit record (torn segment), or its spec
			// no longer decodes: there is nothing to re-run. Terminal-fail
			// it so it stops being re-adopted forever.
			s.logAppend(campaignlog.Record{Type: campaignlog.TypeDone, ID: c.ID,
				Status: "failed", Error: specErr})
			c.appendDone("failed", specErr)
		default:
			c.Recovered = true
			c.mu.Lock()
			prior := c.status
			c.status = "queued"
			c.mu.Unlock()
			s.logAppend(campaignlog.Record{Type: campaignlog.TypeState, ID: c.ID,
				Status: "queued", Attempt: c.attempt})
			c.emit("campaign_recovered", map[string]any{
				"id": c.ID, "prior_status": prior, "attempt": c.attempt,
			})
			s.qm.QueueDepth(1)
			s.qm.CampaignRecovered()
			s.qm.CampaignRequeued()
			s.recoveredN.Add(1)
			s.requeuedN.Add(1)
			recovered++
			requeued++
			s.running.Add(1)
			go func(c *campaign) {
				defer s.running.Done()
				s.run(c)
			}(c)
		}
	}
	return recovered, requeued
}

// appendDone writes a campaign_done event and flips the terminal status
// without touching the queue gauge — the replay path for campaigns that
// were already terminal (or unrecoverable) in the log.
func (c *campaign) appendDone(status, errMsg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := map[string]any{
		"event": "campaign_done", "time": time.Now().UTC().Format(time.RFC3339Nano),
		"id": c.ID, "status": status, "recovered": true,
	}
	if errMsg != "" {
		f["error"] = errMsg
	}
	if raw, err := json.Marshal(f); err == nil {
		c.events = append(c.events, raw)
	}
	c.status, c.errMsg = status, errMsg
	close(c.notify)
	c.notify = make(chan struct{})
}

// degrade records a durability loss: the first fault wins the reason
// shown on /healthz, the gauge flips, and — for store faults — all
// subsequent experiment runs compute without caching.
func (s *server) degrade(component string, err error) {
	if component == "store" {
		s.storeLost.Store(true)
	}
	if s.degraded.CompareAndSwap(false, true) {
		s.degradedMu.Lock()
		s.degradedReason = component + ": " + err.Error()
		s.degradedMu.Unlock()
		s.qm.SetDegraded(true)
		fmt.Fprintf(os.Stderr, "rasserve: degraded (%s): %v — campaigns continue uncached\n", component, err)
	}
}

func (s *server) degradedState() (bool, string) {
	if !s.degraded.Load() {
		return false, ""
	}
	s.degradedMu.Lock()
	defer s.degradedMu.Unlock()
	return true, s.degradedReason
}

// logAppend appends to the campaign log, absorbing failures: a campaign
// must never die because its durability record could not be written —
// the server just loses restart coverage and says so.
func (s *server) logAppend(rec campaignlog.Record) {
	if s.qlog == nil {
		return
	}
	if err := s.qlog.Append(rec); err != nil {
		s.degrade("campaign log", err)
	}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /experiments", s.handleExperiments)
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/results", s.handleResults)
	mux.HandleFunc("GET /campaigns/{id}/tables", s.handleTables)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := s.reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

// handleHealthz is the liveness probe. It answers 200 as long as the
// process serves — degraded is a mode, not an outage — but reports the
// degradation so operators (and the smoke jobs) see a lost store.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	degraded, reason := s.degradedState()
	status := "ok"
	if degraded {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": status, "degraded": degraded, "reason": reason,
		"store_lost": s.storeLost.Load(),
	})
}

// handleReadyz is the readiness probe: 503 until boot recovery has
// replayed the campaign log, then a report of what recovery did.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false})
		return
	}
	degraded, _ := s.degradedState()
	s.mu.Lock()
	depth := 0
	for _, c := range s.campaigns {
		c.mu.Lock()
		if !terminal(c.status) {
			depth++
		}
		c.mu.Unlock()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"ready":     true,
		"durable":   s.qlog != nil,
		"recovered": s.recoveredN.Load(),
		"requeued":  s.requeuedN.Load(),
		"queued":    depth,
		"degraded":  degraded,
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

func (s *server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	type expInfo struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var out []expInfo
	for _, id := range retstack.ExperimentIDs() {
		title, _ := retstack.ExperimentTitle(id)
		out = append(out, expInfo{ID: id, Title: title})
	}
	writeJSON(w, http.StatusOK, out)
}

// normalize validates and canonicalizes a submitted spec: "all" expands,
// experiment ids and workload names must exist, defaults fill in, and
// the cell-error policy knobs must be sane (the policy value itself was
// validated by OnError's UnmarshalText during decoding).
func normalize(spec campaignSpec) (campaignSpec, error) {
	if len(spec.Exps) == 0 {
		return spec, fmt.Errorf("exps is required (experiment ids, or [\"all\"])")
	}
	if len(spec.Exps) == 1 && spec.Exps[0] == "all" {
		spec.Exps = retstack.ExperimentIDs()
	}
	for i, id := range spec.Exps {
		if _, ok := retstack.ExperimentTitle(id); !ok {
			return spec, fmt.Errorf("unknown experiment %q (GET /experiments lists them)", id)
		}
		if slices.Contains(spec.Exps[:i], id) {
			return spec, fmt.Errorf("experiment %q is listed twice", id)
		}
	}
	known := make(map[string]bool)
	for _, n := range workloads.SPECNames() {
		known[n] = true
	}
	for i, wl := range spec.Workloads {
		if !known[wl] {
			return spec, fmt.Errorf("unknown workload %q (have %v)", wl, workloads.SPECNames())
		}
		if slices.Contains(spec.Workloads[:i], wl) {
			return spec, fmt.Errorf("workload %q is listed twice", wl)
		}
	}
	if spec.CellTimeoutMS < 0 {
		return spec, fmt.Errorf("cell_timeout_ms must be >= 0, got %d", spec.CellTimeoutMS)
	}
	if spec.Insts == 0 {
		spec.Insts = experiments.DefaultParams().InstBudget
	}
	return spec, nil
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var spec campaignSpec
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, "bad campaign spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	spec, err := normalize(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// The manifest hash gives campaigns the same identity rasbench runs
	// carry; the store scope is the cross-campaign cache key (it excludes
	// the experiment list, so a t3 campaign warms cells an `all` reuses).
	man := telemetry.NewManifest("rasserve", nil)
	man.InstBudget, man.Warmup = spec.Insts, spec.Warmup
	man.Workloads = spec.Workloads
	man.Parallel = sweep.Workers(s.parallel)
	man.ExperimentIDs = spec.Exps
	man.Config = retstack.Baseline().Describe()
	man.ComputeHash()
	ws := spec.Workloads
	if len(ws) == 0 {
		ws = workloads.SPECNames()
	}

	s.mu.Lock()
	s.nextID++
	c := &campaign{
		ID:         fmt.Sprintf("c%d", s.nextID),
		Spec:       spec,
		ConfigHash: man.ConfigHash,
		Scope:      resultstore.Scope(man.Config, spec.Insts, spec.Warmup, ws),
		Submitted:  time.Now().UTC(),
		status:     "queued",
		notify:     make(chan struct{}),
		tables:     make(map[string]string),
		cached:     make(map[string]bool),
	}
	s.campaigns[c.ID] = c
	s.order = append(s.order, c.ID)
	s.mu.Unlock()

	// Durability before acknowledgement: once the 202 leaves, a crash at
	// any instant must leave a log from which this campaign re-adopts.
	if rawSpec, err := json.Marshal(spec); err == nil {
		s.logAppend(campaignlog.Record{
			Type: campaignlog.TypeSubmit, ID: c.ID, Spec: rawSpec,
			ConfigHash: c.ConfigHash, Scope: c.Scope,
			Time: c.Submitted.Format(time.RFC3339Nano),
		})
	}
	s.qm.QueueDepth(1)

	s.running.Add(1)
	go func() {
		defer s.running.Done()
		s.run(c)
	}()
	writeJSON(w, http.StatusAccepted, c.view())
}

// params assembles one experiment run's parameters from the campaign
// spec and the server's current health: a degraded server runs without
// the store (compute-without-cache), everything else is the campaign's
// own policy.
func (s *server) params(c *campaign, exp string) experiments.Params {
	p := experiments.Params{
		InstBudget: c.Spec.Insts, Warmup: c.Spec.Warmup,
		Workloads: c.Spec.Workloads, Parallel: s.parallel,
		Ctx:         s.ctx,
		OnCellError: c.Spec.OnCellError,
		Monitor:     &campMonitor{c: c, exp: exp},
	}
	if c.Spec.CellTimeoutMS > 0 {
		p.CellTimeout = time.Duration(c.Spec.CellTimeoutMS) * time.Millisecond
	}
	if s.storeLost.Load() {
		return p
	}
	p.Store, p.StoreScope = s.store, c.Scope
	p.OnStoreFault = func(err error) { s.degrade("store", err) }
	p.OnStoreHit = func(exp string, cell int, shared bool) {
		c.mu.Lock()
		c.cached[fmt.Sprintf("%s/%d", exp, cell)] = true
		if shared {
			c.shared++
		} else {
			c.hits++
		}
		c.mu.Unlock()
		f := map[string]any{"exp": exp, "cell": cell, "shared": shared}
		if prov, ok := s.store.Prov(resultstore.CellKey(c.Scope, exp, cell)); ok {
			f["prov"] = prov
		}
		c.emit("cell_cached", f)
	}
	return p
}

// run executes one campaign: queue on the active-campaign semaphore, then
// sweep each experiment with the shared store spliced in. One experiment
// failing does not kill the rest — its error is recorded and the loop
// continues, finishing completed_with_errors if any experiment rendered.
// A server shutdown mid-campaign returns without a terminal status, which
// is exactly what lets the campaign log re-adopt the campaign on the next
// boot.
func (s *server) run(c *campaign) {
	select {
	case s.sem <- struct{}{}:
	case <-s.ctx.Done():
		return // parked non-terminal; the durable log re-adopts it
	}
	defer func() { <-s.sem }()
	if s.ctx.Err() != nil {
		return
	}

	start := time.Now()
	c.mu.Lock()
	c.attempt++
	attempt := c.attempt
	c.status = "running"
	c.mu.Unlock()
	s.logAppend(campaignlog.Record{Type: campaignlog.TypeState, ID: c.ID,
		Status: "running", Attempt: attempt})
	c.emit("campaign_start", map[string]any{
		"id": c.ID, "exps": c.Spec.Exps, "insts": c.Spec.Insts,
		"workloads": c.Spec.Workloads, "config_hash": c.ConfigHash, "scope": c.Scope,
		"attempt": attempt,
	})

	var failures []string
	rendered := 0
	for _, id := range c.Spec.Exps {
		if s.ctx.Err() != nil {
			return // interrupted; re-adopted on the next boot
		}
		expStart := time.Now()
		res, err := experiments.Run(id, s.params(c, id))
		if err != nil {
			if s.ctx.Err() != nil {
				return
			}
			c.emit("experiment_error", map[string]any{"exp": id, "error": err.Error()})
			failures = append(failures, id+": "+err.Error())
			continue
		}
		table := res.String()
		c.mu.Lock()
		c.tables[id] = table
		c.mu.Unlock()
		rendered++
		s.logAppend(campaignlog.Record{Type: campaignlog.TypeTable, ID: c.ID,
			Exp: id, Table: table, Holes: len(res.Holes)})
		c.emit("experiment_done", map[string]any{
			"exp": id, "seconds": time.Since(expStart).Seconds(), "holes": len(res.Holes),
		})
		c.emit("result", map[string]any{"exp": id, "table": table})
	}

	c.mu.Lock()
	c.wall = time.Since(start).Seconds()
	c.mu.Unlock()
	status, errMsg := "completed", ""
	if len(failures) > 0 {
		errMsg = strings.Join(failures, "; ")
		if rendered > 0 {
			status = "completed_with_errors"
		} else {
			status = "failed"
		}
	}
	s.finish(c, status, errMsg)
	if s.storeMaxBytes > 0 && !s.storeLost.Load() {
		if evicted, err := s.store.Trim(s.storeMaxBytes); err == nil && evicted > 0 {
			fmt.Fprintf(os.Stderr, "rasserve: store: evicted %d oldest segment(s) to fit %d bytes\n",
				evicted, s.storeMaxBytes)
		}
	}
}

// finish marks the campaign terminal — in the log first, then in memory
// — and emits the closing event. Status flips and the campaign_done
// append happen under one lock so a streaming subscriber can never
// observe a terminal campaign whose final event is still in flight
// (which would end its stream one event short).
func (s *server) finish(c *campaign, status, errMsg string) {
	s.logAppend(campaignlog.Record{Type: campaignlog.TypeDone, ID: c.ID,
		Status: status, Error: errMsg})
	c.mu.Lock()
	f := map[string]any{
		"event": "campaign_done", "time": time.Now().UTC().Format(time.RFC3339Nano),
		"id": c.ID, "status": status,
		"hits": c.hits, "shared": c.shared, "executed": c.executed,
		"wall_seconds": c.wall,
	}
	if errMsg != "" {
		f["error"] = errMsg
	}
	raw, err := json.Marshal(f)
	c.status, c.errMsg = status, errMsg
	if err == nil {
		c.events = append(c.events, raw)
	}
	close(c.notify)
	c.notify = make(chan struct{})
	c.mu.Unlock()
	s.qm.QueueDepth(-1)
}

// drain waits up to timeout for every campaign goroutine to finish,
// reporting whether they all did.
func (s *server) drain(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		s.running.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// unfinished lists the campaigns that have not reached a terminal
// status, for the shutdown report (and exit code) when the drain times
// out on them.
func (s *server) unfinished() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []string
	for _, id := range s.order {
		c := s.campaigns[id]
		c.mu.Lock()
		if !terminal(c.status) {
			ids = append(ids, fmt.Sprintf("%s (%s)", id, c.status))
		}
		c.mu.Unlock()
	}
	return ids
}

func (s *server) campaign(r *http.Request) *campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.campaigns[r.PathValue("id")]
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	cs := make([]*campaign, 0, len(s.order))
	for _, id := range s.order {
		cs = append(cs, s.campaigns[id])
	}
	s.mu.Unlock()
	out := make([]view, 0, len(cs))
	for _, c := range cs {
		out = append(out, c.view())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r)
	if c == nil {
		http.Error(w, "no such campaign", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, c.view())
}

// handleResults streams the campaign's event log: everything so far, then
// live events as they land, until the campaign is terminal. Plain JSONL
// by default; ?sse=1 wraps each event as an SSE frame carrying its offset
// as the event id, so a dropped client reconnects with Last-Event-ID (or
// ?from=N) and resumes exactly where it left off. Heartbeats go out on
// idle streams; a subscriber whose writes fail is evicted instead of
// being carried dead until campaign completion.
func (s *server) handleResults(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r)
	if c == nil {
		http.Error(w, "no such campaign", http.StatusNotFound)
		return
	}
	i := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "from must be a non-negative event offset", http.StatusBadRequest)
			return
		}
		i = n
	}
	// Last-Event-ID names the last event the client saw; resume after it.
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			i = n + 1
		}
	}
	sse := r.URL.Query().Get("sse") != ""
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	hb := s.heartbeat
	if hb <= 0 {
		hb = 15 * time.Second
	}
	ticker := time.NewTicker(hb)
	defer ticker.Stop()
	for {
		evs, done, notify := c.next(i)
		for k, ev := range evs {
			var err error
			if sse {
				_, err = fmt.Fprintf(w, "id: %d\ndata: %s\n\n", i+k, ev)
			} else {
				_, err = fmt.Fprintf(w, "%s\n", ev)
			}
			if err != nil {
				return // dead subscriber: evict
			}
		}
		i += len(evs)
		if len(evs) > 0 && flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-notify:
		case <-ticker.C:
			var err error
			if sse {
				// A comment frame: keeps the connection alive without
				// disturbing event ids or Last-Event-ID bookkeeping.
				_, err = fmt.Fprint(w, ": heartbeat\n\n")
			} else {
				_, err = fmt.Fprintf(w, "{\"event\":\"heartbeat\",\"time\":%q}\n",
					time.Now().UTC().Format(time.RFC3339Nano))
			}
			if err != nil {
				return // dead subscriber: evict
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}

func (s *server) handleTables(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r)
	if c == nil {
		http.Error(w, "no such campaign", http.StatusNotFound)
		return
	}
	c.mu.Lock()
	status := c.status
	tables := make(map[string]string, len(c.tables))
	for k, v := range c.tables {
		tables[k] = v
	}
	c.mu.Unlock()
	// completed_with_errors still renders what it has — the holes and
	// missing experiments are explicit, not a reason to withhold the rest.
	if status != "completed" && status != "completed_with_errors" {
		http.Error(w, "campaign is "+status+"; tables render on completion", http.StatusConflict)
		return
	}
	ids := make([]string, 0, len(tables))
	for id := range tables {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, id := range ids {
		fmt.Fprint(w, tables[id])
	}
}
