// Command benchjson converts `go test -bench -benchmem` text output into a
// machine-readable JSON report, so benchmark numbers can be committed,
// diffed, and validated in CI instead of living in terminal scrollback.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkSweep' -benchmem . | benchjson -out BENCH_sweep.json
//	benchjson -validate BENCH_sweep.json -require BenchmarkSweepSerial,BenchmarkSweepParallel
//	go test -run '^$' -bench . -benchmem . | benchjson -baseline BENCH_sweep.json
//
// The parser understands the standard benchmark line shape — name,
// iteration count, then (value, unit) pairs — and keeps the well-known
// units (ns/op, B/op, allocs/op) as top-level fields. Anything else
// (b.ReportMetric output such as "speedup" or "simInsts/s") lands in the
// custom-metrics map. Header lines (goos/goarch/pkg/cpu) are captured as
// report context.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Report is the BENCH_*.json schema.
type Report struct {
	GOOS       string  `json:"goos,omitempty"`
	GOARCH     string  `json:"goarch,omitempty"`
	Package    string  `json:"pkg,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	Benchmarks []Bench `json:"benchmarks"`
}

// Bench is one benchmark result line.
type Bench struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs"` // the -N GOMAXPROCS suffix (1 when absent)
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	var (
		out        = flag.String("out", "", "write the JSON report here (default stdout)")
		validate   = flag.String("validate", "", "validate an existing report file instead of parsing stdin")
		require    = flag.String("require", "", "comma-separated benchmark names that must be present (validate mode)")
		baseline   = flag.String("baseline", "", "committed report to compare allocs/op against; regressions fail the run")
		allocSlack = flag.Float64("alloc-slack", 0.10, "relative allocs/op headroom allowed over the baseline (baseline mode)")
		nsGate     = flag.Bool("ns-gate", false, "also gate ns/op against the baseline (opt-in: wall clock is noisy on shared runners)")
		nsSlack    = flag.Float64("ns-slack", 3.0, "relative ns/op headroom allowed over the baseline (ns-gate mode; 3.0 allows 4x)")
		spdSlack   = flag.Float64("speedup-slack", 0.5, "relative speedup shortfall allowed under the baseline (baseline mode; 0.5 tolerates a 1/1.5x drop)")
	)
	flag.Parse()

	if *validate != "" {
		if err := validateFile(*validate, *require); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Printf("benchjson: %s ok\n", *validate)
		return
	}

	rep, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	} else if *baseline == "" {
		os.Stdout.Write(buf)
	}

	if *baseline != "" {
		base, err := readReport(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		regs, checked := CompareAllocs(rep, base, *allocSlack)
		timeChecked := 0
		if *nsGate {
			tregs, tc := CompareTimes(rep, base, *nsSlack)
			regs, timeChecked = append(regs, tregs...), tc
		}
		sregs, spdChecked, spdSkipped := CompareSpeedup(rep, base, *spdSlack)
		regs = append(regs, sregs...)
		for _, r := range regs {
			fmt.Fprintln(os.Stderr, "benchjson: REGRESSION:", r)
		}
		if len(regs) > 0 {
			os.Exit(1)
		}
		fmt.Printf("benchjson: allocs/op within %.0f%% of %s for %d benchmark(s)\n",
			*allocSlack*100, *baseline, checked)
		if *nsGate {
			fmt.Printf("benchjson: ns/op within %.0f%% of %s for %d benchmark(s)\n",
				*nsSlack*100, *baseline, timeChecked)
		}
		if spdChecked > 0 {
			fmt.Printf("benchjson: speedup within 1/%.1fx of %s for %d metric(s)\n",
				1+*spdSlack, *baseline, spdChecked)
		}
		for _, name := range spdSkipped {
			fmt.Printf("benchjson: skipped: single-core: %s — speedup gate needs procs > 1\n", name)
		}
	}
}

// Parse reads `go test -bench` text output into a Report. Non-benchmark
// lines other than the known headers (PASS, ok, test chatter) are ignored.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: []Bench{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// parseLine decodes one "BenchmarkName-N  iters  v unit  v unit ..." line.
func parseLine(line string) (Bench, error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return Bench{}, fmt.Errorf("short benchmark line %q", line)
	}
	b := Bench{Name: f[0], Procs: 1}
	if i := strings.LastIndex(f[0], "-"); i > 0 {
		if n, err := strconv.Atoi(f[0][i+1:]); err == nil {
			b.Name, b.Procs = f[0][:i], n
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Bench{}, fmt.Errorf("bad iteration count in %q: %v", line, err)
	}
	b.Iterations = iters
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Bench{}, fmt.Errorf("bad value %q in %q: %v", f[i], line, err)
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	if b.NsPerOp == 0 {
		return Bench{}, fmt.Errorf("no ns/op in benchmark line %q", line)
	}
	return b, nil
}

// readReport loads and decodes a committed BENCH_*.json report.
func readReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &rep, nil
}

// CompareAllocs checks cur's allocs/op against base for every benchmark
// present in both reports, returning one message per regression and the
// number of benchmarks compared. Allocation counts are the stable axis to
// guard in CI — wall-clock on shared runners is too noisy to gate on, but
// allocs/op only moves when the code's allocation behavior actually
// changes. slack is relative headroom (0.10 = 10%); a few allocs of
// absolute headroom are always granted so tiny baselines (0–2 allocs/op)
// don't trip on one-off runtime noise.
func CompareAllocs(cur, base *Report, slack float64) (regressions []string, checked int) {
	baseBy := map[string]Bench{}
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	for _, b := range cur.Benchmarks {
		bb, ok := baseBy[b.Name]
		if !ok {
			continue
		}
		checked++
		limit := bb.AllocsOp*(1+slack) + 4
		if b.AllocsOp > limit {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.0f allocs/op exceeds baseline %.0f (limit %.0f)",
				b.Name, b.AllocsOp, bb.AllocsOp, limit))
		}
	}
	return regressions, checked
}

// CompareTimes checks cur's ns/op against base for every benchmark present
// in both reports. It is opt-in (-ns-gate): wall clock on shared CI runners
// swings with co-tenancy, so the default gate is allocations only. The time
// gate exists to catch order-of-magnitude dispatch regressions — a fast
// path silently disabled turns into a 5–10x ns/op jump, which survives any
// plausible runner noise — hence the generous default slack.
func CompareTimes(cur, base *Report, slack float64) (regressions []string, checked int) {
	baseBy := map[string]Bench{}
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	for _, b := range cur.Benchmarks {
		bb, ok := baseBy[b.Name]
		if !ok || bb.NsPerOp <= 0 {
			continue
		}
		checked++
		limit := bb.NsPerOp * (1 + slack)
		if b.NsPerOp > limit {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.0f ns/op exceeds baseline %.0f (limit %.0f)",
				b.Name, b.NsPerOp, bb.NsPerOp, limit))
		}
	}
	return regressions, checked
}

// CompareSpeedup gates the custom speedup metrics (parallel "speedup",
// store "cacheSpeedup") against the baseline for benchmarks present in
// both reports. The parallel comparison is meaningless without real
// parallelism — a single-core runner measures serial-vs-serial noise — so
// it is skipped whenever the current run reports procs <= 1 or omits the
// metric entirely, which is what the benchmark itself does on one core.
// Each skip is returned by name (with its proc count) so the caller can
// say exactly which gates did not run, rather than silently passing.
// cacheSpeedup has no such exemption: a cache hit is fast at any core
// count, so a baseline metric the current run lost is itself a
// regression.
func CompareSpeedup(cur, base *Report, slack float64) (regressions []string, checked int, skipped []string) {
	baseBy := map[string]Bench{}
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	for _, b := range cur.Benchmarks {
		bb, ok := baseBy[b.Name]
		if !ok {
			continue
		}
		for _, key := range []string{"speedup", "cacheSpeedup"} {
			bv, inBase := bb.Metrics[key]
			if !inBase || bv <= 0 {
				continue
			}
			cv, inCur := b.Metrics[key]
			if key == "speedup" {
				procs := float64(b.Procs)
				if p, ok := b.Metrics["procs"]; ok {
					procs = p
				}
				if procs <= 1 || !inCur {
					skipped = append(skipped, fmt.Sprintf("%s (procs=%.0f)", b.Name, procs))
					continue
				}
			} else if !inCur {
				regressions = append(regressions, fmt.Sprintf(
					"%s: baseline records %s %.1f but the current run reports none",
					b.Name, key, bv))
				continue
			}
			checked++
			floor := bv / (1 + slack)
			if cv < floor {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %s %.2f fell below baseline %.2f (floor %.2f)",
					b.Name, key, cv, bv, floor))
			}
		}
	}
	return regressions, checked, skipped
}

// validateFile checks that a committed report parses, is non-empty, has
// sane numbers, and contains every required benchmark.
func validateFile(path, require string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("%s: no benchmarks", path)
	}
	byName := map[string]Bench{}
	for _, b := range rep.Benchmarks {
		if b.Name == "" || b.Iterations <= 0 || b.NsPerOp <= 0 {
			return fmt.Errorf("%s: malformed benchmark %+v", path, b)
		}
		byName[b.Name] = b
	}
	if require != "" {
		for _, name := range strings.Split(require, ",") {
			if _, ok := byName[name]; !ok {
				return fmt.Errorf("%s: required benchmark %q missing", path, name)
			}
		}
	}
	return nil
}
