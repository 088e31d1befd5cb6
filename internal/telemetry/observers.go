package telemetry

import (
	"strconv"
	"time"

	"retstack/internal/sweep"
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

// SweepObserver feeds a sweep into a registry and an event log. Live, as
// a sweep.Monitor, it moves the inflight gauge (a point-in-time quantity
// that must stay a live shared atomic or it would lie) and emits a
// cell_done event per cell. Once the sweep has joined, Publish folds the
// scheduler's per-worker records into the completed, errors, seconds and
// worker-busy families, which are registered eagerly so the schema is
// present at zero regardless. Either sink may be nil; a fully nil
// observer is still safe to call.
type SweepObserver struct {
	reg    *Registry
	log    *EventLog
	labels []string // constant labels (e.g. exp="t3") on every metric

	inflight  *Gauge
	completed *Counter
	errors    *Counter
	seconds   *Histogram
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

// CellStart implements sweep.Monitor.
func (o *SweepObserver) CellStart(cell, worker int) {
	if o == nil {
		return
	}
	o.inflight.Add(1)
}

// CellDone implements sweep.Monitor: it moves the inflight gauge down and
// emits a cell_done event. There is deliberately no per-cell series: cell indices are unbounded label
// cardinality (a -exp all run has hundreds), and per-cell timings are
// already captured exactly in the run manifest.
func (o *SweepObserver) CellDone(cell, worker int, d time.Duration, err error) {
	if o == nil {
		return
	}
	o.inflight.Add(-1)
	if o.log == nil {
		// Without a sink the event fields would be built only to be
		// discarded; skipping keeps the no-log CellDone allocation-free
		// (pinned by TestSweepObserverCellDoneAllocs).
		return
	}
	fields := map[string]any{
		"cell": cell, "worker": worker, "seconds": d.Seconds(),
	}
	for i := 0; i+1 < len(o.labels); i += 2 {
		fields[o.labels[i]] = o.labels[i+1]
	}
	if err != nil {
		fields["error"] = err.Error()
	}
	o.log.Emit("cell_done", fields)
}

// Publish folds one joined sweep's per-worker records into the registry:
// every cell's outcome and duration, and each worker's busy time, in
// milliseconds converted once per worker so that short cells are not
// truncated away one by one.
func (o *SweepObserver) Publish(ws []sweep.WorkerStats) {
	if o == nil {
		return
	}
	for _, w := range ws {
		if w.Finished == 0 && w.Busy == 0 {
			continue
		}
		o.completed.Add(uint64(w.Finished))
		o.errors.Add(uint64(w.Errs))
		for _, c := range w.Cells {
			o.seconds.Observe(c.Elapsed.Seconds())
		}
		o.reg.Counter(MetricSweepWorkerMs, "per-worker busy time in milliseconds",
			append([]string{"worker", strconv.Itoa(w.Worker)}, o.labels...)...).Add(uint64(w.Busy.Milliseconds()))
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
		squashes:    reg.Counter(MetricSquashes, "RUU entries squashed (sample deltas, summing to run totals)"),
		recoveries:  reg.Counter(MetricRecoveries, "branch-misprediction recoveries (sample deltas, summing to run totals)"),
		pdHits: reg.Counter(MetricPredecodeHits,
			"fetches served from the predecoded instruction plane (sample deltas, summing to run totals)"),
		pdFallbacks: reg.Counter(MetricPredecodeFallbacks,
			"fetches decoded from memory instead of the plane (sample deltas, summing to run totals)"),
		ovSpills: reg.Counter(MetricOverlaySpills,
			"wrong-path overlay inline-slot overflows into the spill table (sample deltas, summing to run totals)"),
		ovReuses: reg.Counter(MetricOverlayReuses,
			"wrong-path overlays served from the pool instead of allocated (sample deltas, summing to run totals)"),
		blkHits: reg.Counter(MetricBlockHits,
			"basic-block dispatches served from the plane's block table (sample deltas, summing to run totals)"),
		blkBuilds: reg.Counter(MetricBlockBuilds,
			"basic-block descriptor builds (first entries per machine; sample deltas, summing to run totals)"),
		blkInvals: reg.Counter(MetricBlockInvalidations,
			"code-region invalidations gating block and predecode dispatch (sample deltas, summing to run totals)"),
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
		shared: reg.Counter(MetricStoreShared, "sweeps that waited for another sweep's claim on their scope and experiment"),
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

// ObserveShared records one sweep that waited for another sweep's claim.
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
