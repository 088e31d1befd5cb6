package telemetry

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Metric names exposed by the observers below. Declared as constants so
// the CLIs, tests, and docs agree on the schema.
const (
	MetricSweepInflight    = "retstack_sweep_cells_inflight"
	MetricSweepCompleted   = "retstack_sweep_cells_completed_total"
	MetricSweepErrors      = "retstack_sweep_cell_errors_total"
	MetricSweepCellSeconds = "retstack_sweep_cell_seconds"
	MetricSweepWorkerMs    = "retstack_sweep_worker_busy_ms_total"

	MetricSamples     = "retstack_pipeline_samples_total"
	MetricRASDepth    = "retstack_pipeline_ras_depth"
	MetricRUUOcc      = "retstack_pipeline_ruu_occupancy"
	MetricFetchQOcc   = "retstack_pipeline_fetchq_occupancy"
	MetricLivePaths   = "retstack_pipeline_live_paths"
	MetricCheckpoints = "retstack_pipeline_checkpoints_live"
	MetricSquashes    = "retstack_pipeline_squashes_total"
	MetricRecoveries  = "retstack_pipeline_recoveries_total"

	MetricPredecodeHits      = "retstack_pipeline_predecode_hits_total"
	MetricPredecodeFallbacks = "retstack_pipeline_predecode_fallbacks_total"

	MetricOverlaySpills = "retstack_pipeline_overlay_spills_total"
	MetricOverlayReuses = "retstack_pipeline_overlay_reuses_total"

	MetricBlockHits          = "retstack_emu_block_hits_total"
	MetricBlockBuilds        = "retstack_emu_block_builds_total"
	MetricBlockInvalidations = "retstack_emu_block_invalidations_total"

	// Trace/attribution metrics (rasbench -trace-out). Mispredict
	// attributions are labeled by cause; stage cycles by pipeline stage.
	MetricAttribMispredicts  = "retstack_attrib_mispredicts_total"
	MetricAttribStageCycles  = "retstack_attrib_stage_cycles_total"
	MetricTraceEvents        = "retstack_trace_events_total"
	MetricTraceRepairLatency = "retstack_trace_repair_latency_cycles"
	MetricTraceSquashDepth   = "retstack_trace_squash_depth"

	// Content-addressed result store metrics (rasbench -store, rasserve).
	MetricStoreHits       = "retstack_store_hits_total"
	MetricStoreMisses     = "retstack_store_misses_total"
	MetricStorePuts       = "retstack_store_puts_total"
	MetricStoreShared     = "retstack_store_shared_total"
	MetricStoreGetSeconds = "retstack_store_get_seconds"
	MetricStorePutSeconds = "retstack_store_put_seconds"

	// Durable campaign queue and serving-health metrics (rasserve).
	// Depth counts submitted-but-unfinished campaigns; recovered counts
	// non-terminal campaigns re-adopted from the campaign log at boot;
	// requeued counts every time a campaign went back on the queue for
	// another attempt. Degraded is 0/1: the server lost its result store
	// to an I/O fault and is serving compute-without-cache.
	MetricQueueDepth     = "retstack_queue_depth"
	MetricQueueRecovered = "retstack_queue_recovered_total"
	MetricQueueRequeued  = "retstack_queue_requeued_total"
	MetricServerDegraded = "retstack_server_degraded"
)

// sweepCellBounds are the per-cell wall-clock histogram buckets.
var sweepCellBounds = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}

// sweepCellBuckets is len(sweepCellBounds)+1 (the +Inf bucket), spelled as
// a constant so each worker's accumulator can inline its bucket array.
const sweepCellBuckets = 14

// sweepWorkerCell is one worker's private accumulator. Only the owning
// worker writes it during a sweep; Drain reads after the sweep joins. The
// pad keeps adjacent workers' counters on separate cache lines so the
// observer never induces the false sharing it exists to measure.
type sweepWorkerCell struct {
	completed uint64
	errors    uint64
	busyMs    uint64
	secSum    float64
	buckets   [sweepCellBuckets]uint64
	_         [16]byte
}

// SweepObserver feeds sweep-cell lifecycle callbacks into a registry and
// an event log. It satisfies internal/sweep.Monitor structurally, keeping
// this package dependency-free. Either sink may be nil; a fully nil
// observer is still safe to call.
//
// Per-cell accounting lands in per-worker cells the owning worker alone
// writes — no shared counter increments and no registry-lock lookups on
// the cell hot path. The inflight gauge stays a live shared atomic (it is
// a point-in-time quantity; deferring it would make it lie).
// Call Drain after the sweep completes to fold the cells into the
// registry; until then the completed/errors/seconds/worker-busy families
// read as zero (they are registered eagerly so the schema is present
// regardless).
type SweepObserver struct {
	reg    *Registry
	log    *EventLog
	labels []string // constant labels (e.g. exp="t3") on every metric

	inflight  *Gauge
	completed *Counter
	errors    *Counter
	seconds   *Histogram

	cells atomic.Pointer[[]*sweepWorkerCell]
	grow  sync.Mutex // serializes cell-table growth only
}

// NewSweepObserver builds an observer publishing under the given constant
// labels (alternating key/value, e.g. "exp", "t3").
func NewSweepObserver(reg *Registry, log *EventLog, labels ...string) *SweepObserver {
	return &SweepObserver{
		reg:    reg,
		log:    log,
		labels: labels,
		inflight: reg.Gauge(MetricSweepInflight,
			"sweep cells currently executing", labels...),
		completed: reg.Counter(MetricSweepCompleted,
			"sweep cells finished", labels...),
		errors: reg.Counter(MetricSweepErrors,
			"sweep cells finished with an error", labels...),
		seconds: reg.Histogram(MetricSweepCellSeconds,
			"per-cell simulation wall clock", sweepCellBounds, labels...),
	}
}

// cell returns worker w's accumulator, growing the table on first sight of
// a new worker id (once per worker per observer; the warm path is a
// lock-free load plus an index).
func (o *SweepObserver) cell(w int) *sweepWorkerCell {
	if w < 0 {
		w = 0
	}
	if cp := o.cells.Load(); cp != nil && w < len(*cp) {
		return (*cp)[w]
	}
	o.grow.Lock()
	defer o.grow.Unlock()
	var cur []*sweepWorkerCell
	if cp := o.cells.Load(); cp != nil {
		cur = *cp
	}
	if w < len(cur) {
		return cur[w]
	}
	next := make([]*sweepWorkerCell, w+1)
	copy(next, cur)
	for i := len(cur); i <= w; i++ {
		next[i] = &sweepWorkerCell{}
	}
	o.cells.Store(&next)
	return next[w]
}

// CellStart implements sweep.Monitor.
func (o *SweepObserver) CellStart(cell, worker int) {
	if o == nil {
		return
	}
	o.inflight.Add(1)
}

// CellDone implements sweep.Monitor: it accumulates the cell's outcome in
// the owning worker's private cell (folded into the registry by Drain) and
// emits a cell_done event. There is deliberately no per-cell series: cell
// indices are unbounded label cardinality (a -exp all run has hundreds),
// and per-cell timings are already captured exactly in the run manifest
// via sweep.Timing.
func (o *SweepObserver) CellDone(cell, worker int, d time.Duration, err error) {
	if o == nil {
		return
	}
	o.inflight.Add(-1)
	c := o.cell(worker)
	c.completed++
	if err != nil {
		c.errors++
	}
	secs := d.Seconds()
	c.secSum += secs
	i := 0
	for i < len(sweepCellBounds) && secs > sweepCellBounds[i] {
		i++
	}
	c.buckets[i]++
	c.busyMs += uint64(d.Milliseconds())
	if o.log == nil {
		// Without a sink the event fields would be built only to be
		// discarded; skipping keeps the no-log CellDone allocation-free
		// (pinned by TestSweepObserverCellDoneAllocs).
		return
	}
	fields := map[string]any{
		"cell": cell, "worker": worker, "seconds": secs,
	}
	for i := 0; i+1 < len(o.labels); i += 2 {
		fields[o.labels[i]] = o.labels[i+1]
	}
	if err != nil {
		fields["error"] = err.Error()
	}
	o.log.Emit("cell_done", fields)
}

// Drain folds every worker's private accumulator into the registry and
// resets the accumulators, so an observer reused across sweeps publishes
// each sweep's cells exactly once. Call it after the sweep joins (no
// CellDone may be concurrent with Drain); it is cheap and idempotent
// between sweeps — a drained observer drains to zero.
func (o *SweepObserver) Drain() {
	if o == nil {
		return
	}
	cp := o.cells.Load()
	if cp == nil {
		return
	}
	for w, c := range *cp {
		if c.completed == 0 && c.errors == 0 {
			continue
		}
		o.completed.Add(c.completed)
		o.errors.Add(c.errors)
		o.seconds.merge(c.buckets[:], c.completed, c.secSum)
		o.reg.Counter(MetricSweepWorkerMs, "per-worker busy time in milliseconds",
			append([]string{"worker", strconv.Itoa(w)}, o.labels...)...).Add(c.busyMs)
		*c = sweepWorkerCell{}
	}
}

// PipelineMetrics aggregates simulator cycle samples into registry
// instruments. Occupancy-style quantities are recorded as histogram
// observations (so sweeps over many concurrent cells aggregate sensibly);
// squash/recovery activity accumulates via per-sample deltas.
type PipelineMetrics struct {
	samples     *Counter
	rasDepth    *Histogram
	ruu         *Histogram
	fetchq      *Histogram
	livePaths   *Histogram
	checkpoints *Histogram
	squashes    *Counter
	recoveries  *Counter
	pdHits      *Counter
	pdFallbacks *Counter
	ovSpills    *Counter
	ovReuses    *Counter
	blkHits     *Counter
	blkBuilds   *Counter
	blkInvals   *Counter
}

// NewPipelineMetrics registers the pipeline instrument set. A nil registry
// yields a nil collector whose Observe no-ops.
func NewPipelineMetrics(reg *Registry) *PipelineMetrics {
	if reg == nil {
		return nil
	}
	occ := []float64{0, 1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128}
	return &PipelineMetrics{
		samples:  reg.Counter(MetricSamples, "pipeline cycle samples recorded"),
		rasDepth: reg.Histogram(MetricRASDepth, "sampled return-address-stack depth", occ),
		ruu:      reg.Histogram(MetricRUUOcc, "sampled RUU (instruction window) occupancy", occ),
		fetchq:   reg.Histogram(MetricFetchQOcc, "sampled fetch-queue occupancy", occ),
		livePaths: reg.Histogram(MetricLivePaths, "sampled live fetch/execution paths",
			[]float64{1, 2, 3, 4, 6, 8, 12, 16}),
		checkpoints: reg.Histogram(MetricCheckpoints, "sampled in-flight RAS checkpoints", occ),
		squashes:    reg.Counter(MetricSquashes, "RUU entries squashed (sampled deltas)"),
		recoveries:  reg.Counter(MetricRecoveries, "branch-misprediction recoveries (sampled deltas)"),
		pdHits: reg.Counter(MetricPredecodeHits,
			"fetches served from the predecoded instruction plane (sampled deltas)"),
		pdFallbacks: reg.Counter(MetricPredecodeFallbacks,
			"fetches decoded from memory instead of the plane (sampled deltas)"),
		ovSpills: reg.Counter(MetricOverlaySpills,
			"wrong-path overlay inline-slot overflows into the spill table (sampled deltas)"),
		ovReuses: reg.Counter(MetricOverlayReuses,
			"wrong-path overlays served from the pool instead of allocated (sampled deltas)"),
		blkHits: reg.Counter(MetricBlockHits,
			"basic-block dispatches served from the plane's block table (sampled deltas)"),
		blkBuilds: reg.Counter(MetricBlockBuilds,
			"basic-block descriptor builds (first entries per machine, sampled deltas)"),
		blkInvals: reg.Counter(MetricBlockInvalidations,
			"code-region invalidations gating block and predecode dispatch (sampled deltas)"),
	}
}

// AttribMetrics publishes the misprediction-attribution layer's results:
// per-cause mispredict counters, per-stage cycle counters, and the
// repair-latency/squash-depth histograms its callbacks feed live. Like
// the other collectors it takes plain values, so the pipeline package
// stays import-free of telemetry (the attributor exposes callbacks; the
// CLI connects them here).
type AttribMetrics struct {
	reg           *Registry
	labels        []string
	events        *Counter
	repairLatency *Histogram
	squashDepth   *Histogram
}

// NewAttribMetrics registers the attribution instrument set under the
// given constant labels (e.g. "exp", "t3"). A nil registry yields a nil
// collector whose methods no-op.
func NewAttribMetrics(reg *Registry, labels ...string) *AttribMetrics {
	if reg == nil {
		return nil
	}
	return &AttribMetrics{
		reg:    reg,
		labels: labels,
		events: reg.Counter(MetricTraceEvents, "pipeline trace events recorded", labels...),
		repairLatency: reg.Histogram(MetricTraceRepairLatency,
			"cycles from a recovering instruction's fetch to its resolution",
			[]float64{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}, labels...),
		squashDepth: reg.Histogram(MetricTraceSquashDepth,
			"RUU entries plus fetch slots squashed per recovery",
			[]float64{0, 1, 2, 4, 8, 16, 32, 64, 128}, labels...),
	}
}

// ObserveRepairLatency records one recovery's repair latency (wire to
// pipeline.Attributor.OnRepairLatency).
func (a *AttribMetrics) ObserveRepairLatency(cycles uint64) {
	if a == nil {
		return
	}
	a.repairLatency.Observe(float64(cycles))
}

// ObserveSquashBurst records one recovery's squash depth (wire to
// pipeline.Attributor.OnSquashBurst).
func (a *AttribMetrics) ObserveSquashBurst(entries uint64) {
	if a == nil {
		return
	}
	a.squashDepth.Observe(float64(entries))
}

// AddCause accumulates attributed return mispredictions for one cause.
func (a *AttribMetrics) AddCause(cause string, n uint64) {
	if a == nil || n == 0 {
		return
	}
	a.reg.Counter(MetricAttribMispredicts, "return mispredictions by attributed cause",
		append([]string{"cause", cause}, a.labels...)...).Add(n)
}

// AddStage accumulates committed-instruction cycles for one pipeline
// stage interval.
func (a *AttribMetrics) AddStage(stage string, cycles uint64) {
	if a == nil || cycles == 0 {
		return
	}
	a.reg.Counter(MetricAttribStageCycles, "committed-instruction cycles by pipeline stage",
		append([]string{"stage", stage}, a.labels...)...).Add(cycles)
}

// AddEvents accumulates recorded trace events.
func (a *AttribMetrics) AddEvents(n uint64) {
	if a == nil || n == 0 {
		return
	}
	a.events.Add(n)
}

// Observe records one cycle sample. The argument list mirrors
// pipeline.Sample field-by-field so this package needs no simulator
// import.
func (p *PipelineMetrics) Observe(ruuOcc, fetchqOcc, livePaths, rasDepth, checkpointsLive int,
	newSquashed, newRecoveries, newPredecodeHits, newPredecodeFallbacks,
	newOverlaySpills, newOverlayReuses,
	newBlockHits, newBlockBuilds, newBlockInvalidations uint64) {
	if p == nil {
		return
	}
	p.samples.Inc()
	p.ruu.ObserveInt(ruuOcc)
	p.fetchq.ObserveInt(fetchqOcc)
	p.livePaths.ObserveInt(livePaths)
	p.rasDepth.ObserveInt(rasDepth)
	p.checkpoints.ObserveInt(checkpointsLive)
	p.squashes.Add(newSquashed)
	p.recoveries.Add(newRecoveries)
	p.pdHits.Add(newPredecodeHits)
	p.pdFallbacks.Add(newPredecodeFallbacks)
	p.ovSpills.Add(newOverlaySpills)
	p.ovReuses.Add(newOverlayReuses)
	p.blkHits.Add(newBlockHits)
	p.blkBuilds.Add(newBlockBuilds)
	p.blkInvals.Add(newBlockInvalidations)
}

// StoreMetrics feeds content-addressed result-store activity into a
// registry. Construction registers every family eagerly — an all-hit warm
// run must still expose retstack_store_misses_total = 0, so promcheck
// -require can assert the schema regardless of traffic. The struct
// satisfies resultstore.Observer's shape via the Observer method, keeping
// this package dependency-free.
type StoreMetrics struct {
	hits   *Counter
	misses *Counter
	puts   *Counter
	shared *Counter
	gets   *Histogram
	putsH  *Histogram
}

// NewStoreMetrics registers the retstack_store_* families on reg. A nil
// registry yields a nil observer, which is safe to call.
func NewStoreMetrics(reg *Registry) *StoreMetrics {
	if reg == nil {
		return nil
	}
	lat := []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}
	return &StoreMetrics{
		hits:   reg.Counter(MetricStoreHits, "result-store lookups answered from cache"),
		misses: reg.Counter(MetricStoreMisses, "result-store lookups that required simulation"),
		puts:   reg.Counter(MetricStorePuts, "cell results persisted to the store"),
		shared: reg.Counter(MetricStoreShared, "callers that joined another caller's in-flight simulation"),
		gets:   reg.Histogram(MetricStoreGetSeconds, "result-store lookup latency", lat),
		putsH:  reg.Histogram(MetricStorePutSeconds, "result-store persist latency (includes fsync)", lat),
	}
}

// ObserveGet records one lookup by outcome.
func (m *StoreMetrics) ObserveGet(hit bool, seconds float64) {
	if m == nil {
		return
	}
	if hit {
		m.hits.Inc()
	} else {
		m.misses.Inc()
	}
	m.gets.Observe(seconds)
}

// ObservePut records one persisted record.
func (m *StoreMetrics) ObservePut(seconds float64) {
	if m == nil {
		return
	}
	m.puts.Inc()
	m.putsH.Observe(seconds)
}

// ObserveShared records one caller sharing an in-flight computation.
func (m *StoreMetrics) ObserveShared() {
	if m == nil {
		return
	}
	m.shared.Inc()
}

// ServerMetrics feeds rasserve's campaign-queue lifecycle and health
// into a registry. Construction registers every family eagerly — a
// freshly booted server with an empty queue must still expose
// retstack_queue_recovered_total = 0 and retstack_server_degraded = 0,
// so promcheck -require can assert the schema before any campaign runs.
type ServerMetrics struct {
	depth     *Gauge
	recovered *Counter
	requeued  *Counter
	degraded  *Gauge
}

// NewServerMetrics registers the queue/health families on reg. A nil
// registry yields a nil collector, which is safe to call.
func NewServerMetrics(reg *Registry) *ServerMetrics {
	if reg == nil {
		return nil
	}
	return &ServerMetrics{
		depth: reg.Gauge(MetricQueueDepth,
			"campaigns submitted but not yet terminal"),
		recovered: reg.Counter(MetricQueueRecovered,
			"non-terminal campaigns re-adopted from the campaign log at boot"),
		requeued: reg.Counter(MetricQueueRequeued,
			"campaigns placed back on the queue for another attempt"),
		degraded: reg.Gauge(MetricServerDegraded,
			"1 when the result store is lost to an I/O fault and the server computes without caching"),
	}
}

// QueueDepth moves the queue-depth gauge by d.
func (m *ServerMetrics) QueueDepth(d int64) {
	if m == nil {
		return
	}
	m.depth.Add(d)
}

// CampaignRecovered records one campaign re-adopted from the log.
func (m *ServerMetrics) CampaignRecovered() {
	if m == nil {
		return
	}
	m.recovered.Inc()
}

// CampaignRequeued records one campaign going back on the queue.
func (m *ServerMetrics) CampaignRequeued() {
	if m == nil {
		return
	}
	m.requeued.Inc()
}

// SetDegraded flips the degraded gauge.
func (m *ServerMetrics) SetDegraded(v bool) {
	if m == nil {
		return
	}
	if v {
		m.degraded.Set(1)
	} else {
		m.degraded.Set(0)
	}
}
