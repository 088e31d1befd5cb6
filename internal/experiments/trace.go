package experiments

import (
	"fmt"
	"path/filepath"

	"retstack/internal/pipeline"
	"retstack/internal/tracefile"
)

// TraceParams routes per-cell misprediction-attribution tracing (the
// rasbench -trace-out/-trace-buf flags). Tracing is strictly
// observational: attaching it cannot change tables or structured values
// (pinned by TestTraceDoesNotPerturbResults).
//
// Cells run concurrently, so the callbacks must be safe for concurrent
// use — same contract as Params.Sample. Cells spliced in from the result
// store never execute and therefore produce no traces.
type TraceParams struct {
	// Dir, when non-empty, writes one JSONL trace file per cell, named
	// <exp>-c<cell>.trace.jsonl. Empty means attribution-only: causes are
	// still classified and reported via OnCell, but no events hit disk.
	Dir string
	// Buf is the causal ring capacity used to resolve corrupting-event
	// PCs (0 = pipeline.DefaultTraceBuf).
	Buf int
	// OnRepairLatency and OnSquashBurst observe each recovery live
	// (telemetry histograms). Either may be nil.
	OnRepairLatency func(cycles uint64)
	OnSquashBurst   func(entries uint64)
	// OnCell receives each traced cell's attribution results after the
	// cell completes. file is "" when Dir is empty.
	OnCell func(exp string, cell int, file string, st pipeline.AttribStats)
}

// file names cell i's trace artifact inside Dir.
func (tp *TraceParams) file(exp string, cell int) string {
	return filepath.Join(tp.Dir, fmt.Sprintf("%s-c%d.trace.jsonl", exp, cell))
}

// attachTrace installs the attribution tracer (and, with a Dir, the
// JSONL sink) on one cell's simulator. The returned finish must run
// after the simulation completes; it flushes the file and publishes the
// cell's results. finish(false) abandons the trace on a failed cell.
func (p Params) attachTrace(sim *pipeline.Sim, cell int, rasEntries int) (finish func(ok bool) error, err error) {
	tp := p.Trace
	if tp == nil {
		return func(bool) error { return nil }, nil
	}
	var sink pipeline.Tracer
	var tw *tracefile.Writer
	file := ""
	if tp.Dir != "" {
		file = tp.file(p.expID, cell)
		tw, err = tracefile.Create(file, tracefile.Header{
			Label: fmt.Sprintf("%s-c%d", p.expID, cell),
			Exp:   p.expID, Cell: cell, Buf: tp.Buf,
		})
		if err != nil {
			return nil, err
		}
		sink = tw
	}
	attr := pipeline.NewAttributor(rasEntries, tp.Buf, sink)
	attr.OnRepairLatency = tp.OnRepairLatency
	attr.OnSquashBurst = tp.OnSquashBurst
	sim.SetTracer(attr)
	return func(ok bool) error {
		attr.Finish()
		if tw != nil {
			if err := tw.Close(); err != nil {
				return fmt.Errorf("trace %s: %w", file, err)
			}
		}
		if ok && tp.OnCell != nil {
			tp.OnCell(p.expID, cell, file, attr.Stats())
		}
		return nil
	}, nil
}
