package sweep

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Monitor observes sweep-cell lifecycle. Implementations are called
// concurrently from worker goroutines and must be safe for that; they
// must not influence cell execution. Every started cell gets exactly one
// CellStart and one CellDone; CellDone receives the cell's final error
// (including converted panics), after any recovery.
type Monitor interface {
	CellStart(cell, worker int)
	CellDone(cell, worker int, d time.Duration, err error)
}

// WorkerStats is one worker's accounting for a sweep: how many cells it
// started and finished, how long it spent running cells (Busy), and how
// long it spent between them, taking or waiting for work (Wait).
// Busy/Wait cover the span from the worker's start to its last cell's
// completion; utilization over w workers is sum(Busy) / (w × sweep wall
// clock).
type WorkerStats struct {
	Worker   int
	Started  int           // cells begun
	Finished int           // cells that reached a final outcome
	Errs     int           // cells whose final outcome was an error
	Busy     time.Duration // wall clock running cells
	Wait     time.Duration // wall clock between cells
}

// Worker is one sweep worker's side of the Monitor contract and its
// accounting: Start and Done fire the callbacks of the cells the worker
// starts and ends and count them, and Busy and Idle split the worker's
// wall clock into time running cells and time between them. A Worker is
// used by its own goroutine only.
type Worker struct {
	Stats   WorkerStats
	monitor Monitor
	mark    time.Time
}

// NewWorker returns worker id's accounting, its clock started now. m may
// be nil.
func NewWorker(id int, m Monitor) *Worker {
	return &Worker{Stats: WorkerStats{Worker: id}, monitor: m, mark: time.Now()}
}

// Start begins cell: its CellStart.
func (w *Worker) Start(cell int) {
	if w.monitor != nil {
		w.monitor.CellStart(cell, w.Stats.Worker)
	}
	w.Stats.Started++
}

// Done ends cell, which ran for d, with its final error: its CellDone.
func (w *Worker) Done(cell int, d time.Duration, err error) {
	if w.monitor != nil {
		w.monitor.CellDone(cell, w.Stats.Worker, d, err)
	}
	w.Stats.Finished++
	if err != nil {
		w.Stats.Errs++
	}
}

// Busy ends the worker's current interval as time spent running cells and
// returns its length.
func (w *Worker) Busy() time.Duration {
	now := time.Now()
	d := now.Sub(w.mark)
	w.mark = now
	w.Stats.Busy += d
	return d
}

// Idle ends the worker's current interval as time spent between cells.
func (w *Worker) Idle() {
	now := time.Now()
	w.Stats.Wait += now.Sub(w.mark)
	w.mark = now
}

// Monitors fans callbacks out to several monitors, skipping nils. It
// returns nil when nothing remains, so callers can pass the result
// straight to Params.Monitor.
func Monitors(ms ...Monitor) Monitor {
	kept := make(multiMonitor, 0, len(ms))
	for _, m := range ms {
		if m != nil {
			kept = append(kept, m)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	return kept
}

type multiMonitor []Monitor

func (mm multiMonitor) CellStart(cell, worker int) {
	for _, m := range mm {
		m.CellStart(cell, worker)
	}
}

func (mm multiMonitor) CellDone(cell, worker int, d time.Duration, err error) {
	for _, m := range mm {
		m.CellDone(cell, worker, d, err)
	}
}

// CellTiming is one finished cell's accounting.
type CellTiming struct {
	Cell    int
	Worker  int
	Start   time.Duration // offset of the cell's start from NewTiming
	Elapsed time.Duration
	Err     bool
}

// Timing collects per-cell wall-clock accounting for a sweep: cell
// durations, per-worker busy time, and straggler identification. One
// Timing may span several sweeps (an experiment that sweeps more than
// once); records accumulate.
//
// Records land in per-worker shards: each worker appends to its own shard
// under its own (uncontended) mutex, so concurrent CellDone callbacks from
// different workers never serialize on a shared lock — the collector
// itself must not become the cross-worker contention it exists to measure.
// The shard index is the worker id the sweep hands every callback.
type Timing struct {
	epoch time.Time

	shards atomic.Pointer[[]*timingShard]
	grow   sync.Mutex // serializes shard-slice growth only
}

// timingShard is one worker's record list. The mutex is taken by exactly
// two parties: the owning worker (serial with itself) and a reader folding
// results after — or, for Progress-style live reads, during — the sweep.
type timingShard struct {
	mu    sync.Mutex
	cells []CellTiming
	busy  time.Duration
	_     [40]byte // keep adjacent shards' hot fields off one cache line
}

// NewTiming starts a collector; offsets are measured from this call.
func NewTiming() *Timing {
	return &Timing{epoch: time.Now()}
}

// shard returns worker w's shard, growing the shard table on first sight
// of a new worker id (rare: once per worker per sweep).
func (t *Timing) shard(w int) *timingShard {
	if w < 0 {
		w = 0
	}
	if sp := t.shards.Load(); sp != nil && w < len(*sp) {
		return (*sp)[w]
	}
	t.grow.Lock()
	defer t.grow.Unlock()
	var cur []*timingShard
	if sp := t.shards.Load(); sp != nil {
		cur = *sp
	}
	if w < len(cur) { // another grower won the race
		return cur[w]
	}
	next := make([]*timingShard, w+1)
	copy(next, cur)
	for i := len(cur); i <= w; i++ {
		next[i] = &timingShard{}
	}
	t.shards.Store(&next)
	return next[w]
}

// fold runs fn over every shard, locking each in turn.
func (t *Timing) fold(fn func(s *timingShard)) {
	sp := t.shards.Load()
	if sp == nil {
		return
	}
	for _, s := range *sp {
		s.mu.Lock()
		fn(s)
		s.mu.Unlock()
	}
}

// CellStart implements Monitor.
func (t *Timing) CellStart(cell, worker int) {}

// CellDone implements Monitor.
func (t *Timing) CellDone(cell, worker int, d time.Duration, err error) {
	start := time.Since(t.epoch) - d
	if start < 0 {
		start = 0
	}
	s := t.shard(worker)
	s.mu.Lock()
	s.cells = append(s.cells, CellTiming{
		Cell: cell, Worker: worker, Start: start, Elapsed: d, Err: err != nil,
	})
	s.busy += d
	s.mu.Unlock()
}

// Cells returns a copy of the records, ordered by cell index then start.
func (t *Timing) Cells() []CellTiming {
	var out []CellTiming
	t.fold(func(s *timingShard) { out = append(out, s.cells...) })
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cell != out[j].Cell {
			return out[i].Cell < out[j].Cell
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// Wall returns the wall clock elapsed since the collector started.
func (t *Timing) Wall() time.Duration { return time.Since(t.epoch) }

// BusySeconds returns total busy time summed over all workers.
func (t *Timing) BusySeconds() float64 {
	var total time.Duration
	t.fold(func(s *timingShard) { total += s.busy })
	return total.Seconds()
}

// Workers returns how many distinct workers have recorded a cell — the
// honest denominator for utilization when the requested worker count
// exceeded the cell count (the sweep clamps, so extra workers never
// exist, and an idle-worker division would understate utilization).
func (t *Timing) Workers() int {
	n := 0
	t.fold(func(s *timingShard) {
		if len(s.cells) > 0 {
			n++
		}
	})
	return n
}

// Utilization returns aggregate worker utilization: busy time divided by
// (workers × wall clock). 1.0 means no worker ever idled. Callers that
// sized workers from the request rather than the sweep should clamp by
// Workers() — a sweep of 2 cells under -parallel 8 ran on 2 workers, not
// 8. Non-positive worker counts and a zero-elapsed wall return 0 rather
// than dividing by it.
func (t *Timing) Utilization(workers int) float64 {
	wall := t.Wall().Seconds()
	if workers < 1 || wall <= 0 {
		return 0
	}
	return t.BusySeconds() / (float64(workers) * wall)
}

// durations collects every cell duration, sorted ascending.
func (t *Timing) durations() []time.Duration {
	var ds []time.Duration
	t.fold(func(s *timingShard) {
		for _, c := range s.cells {
			ds = append(ds, c.Elapsed)
		}
	})
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

// Median returns the median cell duration (0 with no records).
func (t *Timing) Median() time.Duration {
	ds := t.durations()
	if len(ds) == 0 {
		return 0
	}
	return ds[len(ds)/2]
}

// Quantile returns the q-th quantile cell duration (q in [0,1], nearest-
// rank; 0 with no records). The scalability harness reads p50/p95/p99
// per-cell latency from here.
func (t *Timing) Quantile(q float64) time.Duration {
	ds := t.durations()
	if len(ds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	i := int(q * float64(len(ds)-1))
	return ds[i]
}

// Stragglers returns the cells whose duration exceeded factor × the
// median, slowest first — the cells that gate a sweep's wall clock.
func (t *Timing) Stragglers(factor float64) []CellTiming {
	med := t.Median()
	if med <= 0 {
		return nil
	}
	cut := time.Duration(float64(med) * factor)
	var out []CellTiming
	t.fold(func(s *timingShard) {
		for _, c := range s.cells {
			if c.Elapsed > cut {
				out = append(out, c)
			}
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Elapsed > out[j].Elapsed })
	return out
}

// Progress prints a live one-line report to W as cells finish:
//
//	sweep t3: 12 cells done (1 running), 3.8 cells/s, elapsed 3.2s
//
// The line is rewritten in place with \r; call Finish to terminate it
// with a newline. The cell total is generally unknown to the caller (each
// experiment builds its own cells), so the report shows throughput rather
// than a completion percentage.
type Progress struct {
	W     io.Writer
	Label string

	mu      sync.Mutex
	epoch   time.Time
	running int
	done    int
	errs    int
	width   int
}

// NewProgress builds a progress line labeled label (e.g. the experiment
// id) writing to w.
func NewProgress(w io.Writer, label string) *Progress {
	return &Progress{W: w, Label: label, epoch: time.Now()}
}

// CellStart implements Monitor.
func (p *Progress) CellStart(cell, worker int) {
	p.mu.Lock()
	p.running++
	p.mu.Unlock()
}

// CellDone implements Monitor.
func (p *Progress) CellDone(cell, worker int, d time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.running--
	p.done++
	if err != nil {
		p.errs++
	}
	elapsed := time.Since(p.epoch)
	rate := 0.0
	if s := elapsed.Seconds(); s > 0 {
		rate = float64(p.done) / s
	}
	line := fmt.Sprintf("sweep %s: %d cells done (%d running), %.1f cells/s, elapsed %.1fs",
		p.Label, p.done, p.running, rate, elapsed.Seconds())
	if p.errs > 0 {
		line += fmt.Sprintf(", %d errors", p.errs)
	}
	p.write(line)
}

// write repaints the line, padding over any longer previous content.
func (p *Progress) write(line string) {
	pad := p.width - len(line)
	p.width = len(line)
	if pad < 0 {
		pad = 0
	}
	fmt.Fprintf(p.W, "\r%s%*s", line, pad, "")
}

// Finish terminates the progress line (no-op if nothing was printed).
func (p *Progress) Finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.width > 0 {
		fmt.Fprintln(p.W)
		p.width = 0
	}
}
