// Command perfbench is the repository benchmark: it runs one named
// workload for a fixed time, checks every output against a reference, and
// prints its metrics as one JSON line. See README.md for the workloads,
// the metrics and how to run it.
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"retstack/internal/experiments"
)

// opts are one run's arguments.
type opts struct {
	seed     int64
	run      time.Duration // measured window
	trace    bool
	rasserve string // path of the rasserve binary the serving probe drives
	scratch  string // directory for the run's temporary files
}

// benches maps a workload name to its runner.
var benches = map[string]func(context.Context, opts) (*outcome, error){
	"sweep-cold": func(ctx context.Context, o opts) (*outcome, error) { return sweepBench(ctx, sweepCold, o) },
	"ffwd-warm":  func(ctx context.Context, o opts) (*outcome, error) { return sweepBench(ctx, ffwdWarm, o) },
}

// endToEnd lists the metrics an untraced run prints, with their units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cells_per_s", "1/s"},
	{"campaigns_per_s", "1/s"},
	{"campaign_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's result line, with exactly these four keys.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	values map[string]float64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// finish fills Metrics from the values set for defs and reports any def
// the run never measured (a benchmark bug, so the run fails).
func (o *outcome) finish(defs []metricDef) error {
	o.Metrics = make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		o.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

//go:embed reference.json
var referenceJSON []byte

// sweepRef is the reference record of one sweep workload: the sha256 of
// each experiment's rendered tables at the workload's budget, and how many
// sweep cells the experiment runs.
type sweepRef struct {
	Insts  uint64              `json:"insts"`
	Warmup uint64              `json:"warmup"`
	Tables map[string]tableRef `json:"tables"`
}

type tableRef struct {
	SHA256 string `json:"sha256"`
	Cells  int    `json:"cells"`
}

func loadRefs() map[string]sweepRef {
	var refs map[string]sweepRef
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		panic("perfbench: embedded reference.json: " + err.Error())
	}
	return refs
}

// genRefs renders every sweep workload's experiments once and writes the
// reference record to path.
func genRefs(path string) error {
	refs := map[string]sweepRef{}
	for _, s := range []sweepSpec{sweepCold, ffwdWarm} {
		r := sweepRef{Insts: s.insts, Warmup: s.warmup, Tables: map[string]tableRef{}}
		for _, id := range s.exps {
			cells := &cellCounter{}
			p := s.params(context.Background())
			p.Monitor = cells
			res, err := experiments.Run(id, p)
			if err != nil {
				return err
			}
			r.Tables[id] = tableRef{SHA256: tableHash(res), Cells: cells.n()}
		}
		refs[s.name] = r
	}
	raw, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// peakRSSMB reads VmHWM, the peak resident set, of this process in MiB; 0
// if unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// environment is the record printed with every result.
func environment(workload string, o opts) map[string]any {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return map[string]any{
		"workload": workload, "seed": o.seed, "seconds": o.run.Seconds(), "trace": o.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu": cpu, "go": runtime.Version(),
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: sweep-cold or ffwd-warm")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 30, "length of the measured window")
		trace    = flag.Int("trace", 0, "1: traced run printing per-layer metrics instead of end-to-end ones")
		rasserve = flag.String("rasserve", ".bench_build/rasserve", "rasserve binary the traced runs' serving probe drives")
		scratch  = flag.String("scratch", ".bench_build/tmp", "directory for the run's temporary files")
		refsOut  = flag.String("gen-refs", "", "render the sweep workloads' reference tables into this file and exit")
	)
	flag.Parse()
	if *refsOut != "" {
		if err := genRefs(*refsOut); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	run, ok := benches[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("usage: -workload sweep-cold|ffwd-warm -seed N -seconds N -trace 0|1")
		os.Exit(2)
	}
	o := opts{seed: *seed, run: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		rasserve: *rasserve, scratch: *scratch}
	env, _ := json.Marshal(map[string]any{"env": environment(*workload, o)})
	fmt.Println(string(env))

	// Every run ends well inside the 180 s a run may take, failing rather
	// than overrunning if a layer hangs.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	out, err := run(ctx, o)
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if err == nil {
		err = out.finish(defs)
	}
	if err != nil {
		logf("%s: %v", *workload, err)
		if out == nil {
			out = newOutcome()
		}
		out.Correct = false
		out.Attempted = max(out.Attempted, 1)
		out.Failed = max(out.Failed, 1)
		out.finish(defs) //nolint:errcheck // already failing; report what was measured
		printOutcome(out)
		os.Exit(1)
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	printOutcome(out)
	if !out.Correct {
		os.Exit(1)
	}
}

func printOutcome(out *outcome) {
	raw, err := json.Marshal(out)
	if err != nil {
		logf("encoding result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(raw))
}
