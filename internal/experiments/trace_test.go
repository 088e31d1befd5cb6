package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"retstack/internal/pipeline"
	"retstack/internal/tracefile"
)

// TestTraceDoesNotPerturbResults extends the observability determinism
// contract to the attribution tracer: running an experiment with
// per-cell trace capture attached must render byte-identical tables and
// equal structured values versus a plain run, at any worker count — and
// the trace files it writes must parse, reconcile with the per-cell
// attribution stats, and attribute at least one misprediction. a7 covers
// SMT cells, whose two threads share one tracer.
func TestTraceDoesNotPerturbResults(t *testing.T) {
	for _, exp := range []string{"t3", "a7"} {
		t.Run(exp, func(t *testing.T) { checkTraceInert(t, exp) })
	}
}

func checkTraceInert(t *testing.T, exp string) {
	base := Params{InstBudget: 6_000, Workloads: []string{"go", "li"}, Parallel: 1}
	plain, err := Run(exp, base)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		var mu sync.Mutex
		perCell := map[string]pipeline.AttribStats{}
		var agg pipeline.AttribStats

		p := base
		p.Parallel = workers
		p.Trace = &TraceParams{
			Dir: dir,
			OnCell: func(exp string, cell int, file string, st pipeline.AttribStats) {
				mu.Lock()
				defer mu.Unlock()
				perCell[file] = st
				agg.Merge(&st)
			},
		}
		res, err := Run(exp, p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.String() != plain.String() {
			t.Errorf("workers=%d: table output diverges with tracing attached", workers)
		}
		if !reflect.DeepEqual(res.Values, plain.Values) {
			t.Errorf("workers=%d: structured values diverge with tracing attached", workers)
		}
		if agg.Attributed == 0 {
			t.Fatalf("workers=%d: %s attributed no return mispredictions", workers, exp)
		}
		if agg.Events == 0 || agg.Recoveries == 0 {
			t.Errorf("workers=%d: empty attribution aggregate: %+v", workers, agg)
		}

		// Every cell produced a parseable trace whose attribution totals
		// match what OnCell reported for it.
		files, err := filepath.Glob(filepath.Join(dir, exp+"-c*.trace.jsonl"))
		if err != nil || len(files) == 0 {
			t.Fatalf("workers=%d: no trace files in %s (%v)", workers, dir, err)
		}
		if len(files) != len(perCell) {
			t.Errorf("workers=%d: %d trace files but %d OnCell callbacks", workers, len(files), len(perCell))
		}
		for _, f := range files {
			r, err := tracefile.Open(f)
			if err != nil {
				t.Fatalf("open %s: %v", f, err)
			}
			sum, err := tracefile.Summarize(r)
			r.Close()
			if err != nil {
				t.Fatalf("summarize %s: %v", f, err)
			}
			st, ok := perCell[f]
			if !ok {
				t.Errorf("%s: no OnCell callback for this file", f)
				continue
			}
			if sum.Attributed != st.Attributed {
				t.Errorf("%s: file attributes %d, OnCell says %d", f, sum.Attributed, st.Attributed)
			}
			if sum.Header.Exp != exp {
				t.Errorf("%s: header exp %q", f, sum.Header.Exp)
			}
		}
	}
}

// TestTraceAttributionOnly: with no Dir, attribution still runs and
// reports through OnCell, and nothing is written anywhere.
func TestTraceAttributionOnly(t *testing.T) {
	var mu sync.Mutex
	var agg pipeline.AttribStats
	var latencies, bursts int
	p := Params{InstBudget: 6_000, Workloads: []string{"go"}, Parallel: 2}
	p.Trace = &TraceParams{
		OnRepairLatency: func(uint64) { mu.Lock(); latencies++; mu.Unlock() },
		OnSquashBurst:   func(uint64) { mu.Lock(); bursts++; mu.Unlock() },
		OnCell: func(exp string, cell int, file string, st pipeline.AttribStats) {
			mu.Lock()
			defer mu.Unlock()
			if file != "" {
				t.Errorf("cell %d: unexpected trace file %q without a Dir", cell, file)
			}
			agg.Merge(&st)
		},
	}
	if _, err := Run("t3", p); err != nil {
		t.Fatal(err)
	}
	if agg.Attributed == 0 || latencies == 0 || bursts == 0 {
		t.Errorf("attribution-only run reported nothing: attributed=%d latencies=%d bursts=%d",
			agg.Attributed, latencies, bursts)
	}
}

// TestTracePerfettoExport: a cell trace converts to a valid Chrome
// trace-event document.
func TestTracePerfettoExport(t *testing.T) {
	dir := t.TempDir()
	p := Params{InstBudget: 4_000, Workloads: []string{"li"}, Parallel: 1}
	p.Trace = &TraceParams{Dir: dir}
	if _, err := Run("t3", p); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.trace.jsonl"))
	if len(files) == 0 {
		t.Fatal("no trace files")
	}
	r, err := tracefile.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out := filepath.Join(dir, "trace.json")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	n, err := tracefile.WritePerfetto(f, r)
	if cerr := f.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("perfetto conversion emitted no events")
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracefile.CheckPerfetto(data); err != nil {
		t.Fatal(err)
	}
}
