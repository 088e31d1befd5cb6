package sweep

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync"
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
// started and finished, how long it spent running cells (Busy), how long
// it spent between them, taking or waiting for work (Wait), and a record
// of each cell it ended (Cells). Busy/Wait cover the span from the
// worker's start to its last cell's completion. A sweep's WorkerStats
// are its one cell record, read through Cells, Median, Stragglers and
// Utilization.
type WorkerStats struct {
	Worker   int
	Started  int           // cells begun
	Finished int           // cells that reached a final outcome
	Errs     int           // cells whose final outcome was an error
	Busy     time.Duration // wall clock running cells
	Wait     time.Duration // wall clock between cells
	Cells    []CellTiming  // the cells ended, in the order the worker ended them
}

// CellTiming is one ended cell's record: the worker that ended it, its
// duration (its CellDone's), and whether it failed.
type CellTiming struct {
	Cell    int
	Worker  int
	Elapsed time.Duration
	Err     bool
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

// Done ends cell, which ran for d, with its final error: its CellDone and
// its record.
func (w *Worker) Done(cell int, d time.Duration, err error) {
	if w.monitor != nil {
		w.monitor.CellDone(cell, w.Stats.Worker, d, err)
	}
	w.Stats.Finished++
	if err != nil {
		w.Stats.Errs++
	}
	w.Stats.Cells = append(w.Stats.Cells, CellTiming{Cell: cell, Worker: w.Stats.Worker, Elapsed: d, Err: err != nil})
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

// Cells returns every worker's cell records in cell order.
func Cells(ws []WorkerStats) []CellTiming {
	var out []CellTiming
	for _, w := range ws {
		out = append(out, w.Cells...)
	}
	slices.SortStableFunc(out, func(a, b CellTiming) int { return cmp.Compare(a.Cell, b.Cell) })
	return out
}

// Median returns the median cell duration, the upper middle one of an
// even count (0 with no cells).
func Median(cells []CellTiming) time.Duration {
	if len(cells) == 0 {
		return 0
	}
	ds := make([]time.Duration, len(cells))
	for i, c := range cells {
		ds[i] = c.Elapsed
	}
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// Stragglers returns the cells whose duration exceeded factor × the
// median, slowest first: the cells that gate a sweep's wall clock.
func Stragglers(cells []CellTiming, factor float64) []CellTiming {
	med := Median(cells)
	if med <= 0 {
		return nil
	}
	cut := time.Duration(float64(med) * factor)
	var out []CellTiming
	for _, c := range cells {
		if c.Elapsed > cut {
			out = append(out, c)
		}
	}
	slices.SortStableFunc(out, func(a, b CellTiming) int { return cmp.Compare(b.Elapsed, a.Elapsed) })
	return out
}

// Utilization returns how busy the workers that ended a cell kept over
// wall: the sum of their Busy over (their count × wall). A worker that
// ended no cell is left out: the scheduler starts one per pending cell up
// to the worker limit, and a sweep of a few lockstep units leaves some of
// them nothing to run. 0 with no such worker or no wall clock.
func Utilization(ws []WorkerStats, wall time.Duration) float64 {
	var busy time.Duration
	n := 0
	for _, w := range ws {
		if len(w.Cells) > 0 {
			busy += w.Busy
			n++
		}
	}
	if n == 0 || wall <= 0 {
		return 0
	}
	return busy.Seconds() / (float64(n) * wall.Seconds())
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
