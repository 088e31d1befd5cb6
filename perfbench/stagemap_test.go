package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"

	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/pipeline"
	"retstack/internal/workloads"
)

// simMethods lists every method declared on *pipeline.Sim in the package
// source (tests excluded).
func simMethods(t *testing.T) map[string]bool {
	t.Helper()
	files, err := filepath.Glob("../internal/pipeline/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("pipeline sources: %v", err)
	}
	methods := map[string]bool{}
	fset := token.NewFileSet()
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || len(fn.Recv.List) != 1 {
				continue
			}
			if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
				if id, ok := star.X.(*ast.Ident); ok && id.Name == "Sim" {
					methods[fn.Name.Name] = true
				}
			}
		}
	}
	return methods
}

// TestStageMapCoversSim requires the function-to-stage map to classify
// every pipeline.(*Sim) method, and to name no method that is gone.
func TestStageMapCoversSim(t *testing.T) {
	methods := simMethods(t)
	for m := range methods {
		if _, ok := stageOf[m]; !ok {
			t.Errorf("pipeline.(*Sim).%s is not classified in stageOf", m)
		}
	}
	for m := range stageOf {
		if !methods[m] {
			t.Errorf("stageOf names pipeline.(*Sim).%s, which does not exist", m)
		}
	}
}

// TestStageSplitOfProfile profiles a real simulation and checks that every
// pipeline.(*Sim) method the profile shows is classified, and that the
// stage fractions the fold reports sum to one.
func TestStageSplitOfProfile(t *testing.T) {
	w, _ := workloads.ByName("gcc")
	im, err := workloads.NewArena().Build(w, scaleFor(w, 400_000, 0))
	if err != nil {
		t.Fatal(err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	for _, pol := range core.Policies() {
		sim, err := pipeline.New(config.Baseline().WithPolicy(pol), im)
		if err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
		if err := sim.Run(100_000); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()

	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shown := 0
	for _, s := range samples {
		for _, fn := range s.funcs {
			if m, ok := simMethod(fn); ok {
				shown++
				if _, ok := stageOf[m]; !ok {
					t.Errorf("profile shows unclassified %s", fn)
				}
			}
		}
	}
	if shown == 0 {
		t.Skip("profile caught no pipeline samples")
	}
	sp, err := stageSplit(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, st := range stages {
		total += sp.frac(st)
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("stage fractions sum to %v", total)
	}
}

func TestFoldStage(t *testing.T) {
	const p = "retstack/internal/pipeline.(*Sim)."
	for _, c := range []struct {
		stack  []string // leaf first
		stage  string
		inRun  bool
		reason string
	}{
		{[]string{"runtime.duffcopy", p + "executeAtDispatch", p + "dispatchStage", p + "step", p + "Run"}, "dispatch", true, "helper under a stage"},
		{[]string{p + "squashYounger", p + "recover", p + "writebackStage", p + "step", p + "Run"}, "writeback", true, "nested helpers"},
		{[]string{p + "step", p + "Run"}, "other", true, "cycle loop itself"},
		{[]string{"runtime.mallocgc", p + "Run.func1", p + "Run"}, "other", true, "closure of Run"},
		{[]string{p + "fetchStage", p + "FastForward"}, "other", false, "outside Run"},
	} {
		st, in := foldStage(c.stack)
		if st != c.stage || in != c.inRun {
			t.Errorf("%s: got (%s, %v), want (%s, %v)", c.reason, st, in, c.stage, c.inRun)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []metric `json:"workloads"`
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if _, ok := benches[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	if len(b.Workloads) != len(benches) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(benches))
	}
}
