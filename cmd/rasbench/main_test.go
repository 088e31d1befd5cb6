package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"retstack/internal/experiments"
	"retstack/internal/sweep"
	"retstack/internal/telemetry"
)

// TestMain lets the test binary impersonate the rasbench CLI: the e2e
// tests below re-exec themselves with RASBENCH_MAIN=1 so they can run the
// real main() — signal handling, result store, exit codes and all — as a child
// process they are free to kill.
func TestMain(m *testing.M) {
	if os.Getenv("RASBENCH_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func rasbench(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RASBENCH_MAIN=1")
	return cmd
}

var e2eArgs = []string{"-exp", "all", "-insts", "60000", "-bench", "go,li"}

// cleanRun is the stdout of one uninterrupted `rasbench e2eArgs...` run,
// shared by the tests that need it so a race build pays for it once.
var cleanRun = sync.OnceValues(func() ([]byte, error) {
	cmd := exec.Command(os.Args[0], e2eArgs...)
	cmd.Env = append(os.Environ(), "RASBENCH_MAIN=1")
	return cmd.Output()
})

var update = flag.Bool("update", false, "rewrite the golden tables from this build's output")

// TestTablesMatchGolden holds the simulator to fixed points: a clean
// e2eArgs run, and the same suite measured after a fast-forward warm-up,
// must print exactly the committed tables. An intended result change
// regenerates them with -update, so the golden diff shows what moved.
func TestTablesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	for _, tc := range []struct {
		golden string
		run    func() ([]byte, error)
	}{
		{"exp-all-go-li-60k", cleanRun},
		{"exp-all-go-li-20k-warm200k", func() ([]byte, error) {
			return rasbench(t, "-exp", "all", "-insts", "20000", "-warmup", "200000", "-bench", "go,li").Output()
		}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			golden := filepath.Join("testdata", tc.golden+".golden")
			got, err := tc.run()
			if err == nil && *update {
				err = os.WriteFile(golden, got, 0o644)
			}
			want, rerr := os.ReadFile(golden)
			if err != nil || rerr != nil {
				t.Fatal(err, rerr)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("tables differ from %s (rerun with -update if intended):\n%s", golden, got)
			}
		})
	}
}

// TestKillAndResume is the end-to-end resilience contract: a run backed
// by a result store and killed by SIGINT mid-sweep exits cleanly (code
// 130, manifest flushed), and rerunning the same command against the same
// -store reassembles output byte-identical to an uninterrupted run, with
// the cells the killed run finished counted as store hits in its manifest.
func TestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	store := filepath.Join(dir, "store")

	// Reference: one clean, uninterrupted run.
	cleanOut, err := cleanRun()
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	// Interrupted run: serial (so it is still sweeping when the signal
	// lands), storing, killed as soon as one cell is on disk.
	intMan := filepath.Join(dir, "interrupted.json")
	inter := rasbench(t, append([]string{"-parallel", "1", "-store", store, "-manifest-out", intMan}, e2eArgs...)...)
	var interErr bytes.Buffer
	inter.Stderr = &interErr
	if err := inter.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if fi, err := os.Stat(filepath.Join(store, "seg-000001.log")); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			inter.Process.Kill()
			t.Fatal("no cell stored within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := inter.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	err = inter.Wait()
	interrupted := false
	if ee, ok := err.(*exec.ExitError); ok {
		if code := ee.ExitCode(); code != 130 {
			t.Fatalf("interrupted run exited %d (stderr: %s), want 130", code, interErr.String())
		}
		interrupted = true
	} else if err != nil {
		t.Fatalf("interrupted run: %v", err)
	}
	// err == nil means the run beat the signal; the rerun still splices.
	if interrupted {
		var m telemetry.Manifest
		b, err := os.ReadFile(intMan)
		if err != nil {
			t.Fatalf("interrupted run flushed no manifest: %v", err)
		}
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		if m.Status != "interrupted" {
			t.Errorf("interrupted manifest status = %q, want interrupted", m.Status)
		}
	}

	// Resume: rerun against the same store. Stored cells splice in; the
	// output must match the clean run byte for byte.
	resMan := filepath.Join(dir, "resumed.json")
	resume := rasbench(t, append([]string{"-store", store, "-manifest-out", resMan}, e2eArgs...)...)
	var resumeOut, resumeErrB bytes.Buffer
	resume.Stdout, resume.Stderr = &resumeOut, &resumeErrB
	if err := resume.Run(); err != nil {
		t.Fatalf("resume run: %v (stderr: %s)", err, resumeErrB.String())
	}
	if !bytes.Equal(cleanOut, resumeOut.Bytes()) {
		t.Errorf("resumed stdout differs from clean run\n--- clean ---\n%s--- resumed ---\n%s",
			cleanOut, resumeOut.String())
	}
	var m telemetry.Manifest
	b, err := os.ReadFile(resMan)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m.Status != "completed" {
		t.Errorf("resumed manifest status = %q, want completed", m.Status)
	}
	if m.Store == nil {
		t.Fatal("resumed manifest has no store record")
	}
	if m.Store.Hits < 1 {
		t.Errorf("resumed run hit %d stored cells, want >= 1", m.Store.Hits)
	}
}

// TestArtifactsReconcile: with every telemetry flag on, stdout is a plain
// run's, and the run's artifacts reconcile with one another. The
// manifest, the completed counter, the cell-seconds histogram and the
// cell_done events count the same cells; the manifest's cell seconds sum
// to the histogram's sum; the worker-busy series sum to the same total
// within 1 ms per worker (each worker's busy time is converted to whole
// milliseconds once); and -progress prints its post-sweep summary.
func TestArtifactsReconcile(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	args := []string{"-exp", "t3", "-insts", "20000", "-bench", "go,li"}
	plain, err := rasbench(t, args...).Output()
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	dir := t.TempDir()
	prom, events, manifest := filepath.Join(dir, "m.prom"), filepath.Join(dir, "e.jsonl"), filepath.Join(dir, "manifest.json")
	cmd := rasbench(t, append(args, "-metrics-out", prom, "-events-out", events, "-manifest-out", manifest, "-progress")...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("telemetry run: %v (stderr: %s)", err, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), plain) {
		t.Errorf("stdout with telemetry differs from a plain run\n--- plain ---\n%s--- telemetry ---\n%s", plain, stdout.String())
	}
	if !strings.Contains(stderr.String(), "sweep t3: 8 cells, utilization") {
		t.Errorf("stderr carries no post-sweep summary:\n%s", stderr.String())
	}

	var m telemetry.Manifest
	b, err := os.ReadFile(manifest)
	if err == nil {
		err = json.Unmarshal(b, &m)
	}
	if err != nil || len(m.Experiments) != 1 {
		t.Fatalf("manifest: %v, %d experiments", err, len(m.Experiments))
	}
	var manSeconds float64
	for _, c := range m.Experiments[0].Cells {
		manSeconds += c.Seconds
	}

	f, err := os.Open(prom)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	series, err := telemetry.Samples(f)
	if err != nil {
		t.Fatal(err)
	}
	var busyMs float64
	workers := 0
	for k, v := range series {
		if strings.HasPrefix(k, telemetry.MetricSweepWorkerMs+"{") {
			busyMs += v
			workers++
		}
	}

	b, err = os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	cellDone := 0
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var ev struct{ Event string }
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event %q: %v", line, err)
		}
		if ev.Event == "cell_done" {
			cellDone++
		}
	}

	for what, n := range map[string]float64{
		"manifest cells":     float64(len(m.Experiments[0].Cells)),
		"completed counter":  series[telemetry.MetricSweepCompleted+`{exp="t3"}`],
		"cell-seconds count": series[telemetry.MetricSweepCellSeconds+`_count{exp="t3"}`],
		"cell_done events":   float64(cellDone),
	} {
		if n != 8 {
			t.Errorf("%s: %v, want 8", what, n)
		}
	}
	sum := series[telemetry.MetricSweepCellSeconds+`_sum{exp="t3"}`]
	if sum <= 0 || math.Abs(manSeconds-sum) > 1e-9*sum {
		t.Errorf("manifest cell seconds sum to %v, the histogram to %v", manSeconds, sum)
	}
	if workers == 0 || math.Abs(busyMs-1000*sum) > float64(workers) {
		t.Errorf("%d worker-busy series sum to %v ms, the cells to %.3f ms", workers, busyMs, 1000*sum)
	}
}

// TestRetiredRetryInputsFail: retired inputs are refused with a non-zero
// exit: the retry policy, its flags and the fault-plan forms that existed
// for it, and the scalability family's flags and experiment ids.
func TestRetiredRetryInputsFail(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	for _, args := range [][]string{
		{"-on-cell-error", "retry", "-exp", "t1"}, {"-retries", "3", "-exp", "t1"},
		{"-retry-backoff", "10ms", "-exp", "t1"},
		{"-inject", "transient:3", "-exp", "t1"}, {"-inject", "panic:3x2", "-exp", "t1"},
		{"-scale"}, {"-scale-out", "s.json", "-exp", "t1"},
		{"-scale-levels", "1,2", "-exp", "t1"}, {"-scale-target", "t3", "-exp", "t1"},
		{"-exp", "p1"},
	} {
		if out, err := rasbench(t, args...).CombinedOutput(); err == nil {
			t.Errorf("rasbench %v succeeded:\n%s", args, out)
		}
	}
}

// TestFailedRunKeepsProfiles: a run that fails still leaves both
// profiles behind as non-empty gzip streams, the form pprof reads.
func TestFailedRunKeepsProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	out, err := rasbench(t, "-exp", "t3", "-insts", "2000", "-bench", "go,li",
		"-cpuprofile", cpu, "-memprofile", mem, "-inject", "panic:3").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("run with an injected panic: %v, want exit 1:\n%s", err, out)
	}
	for _, f := range []string{cpu, mem} {
		raw, err := os.ReadFile(f)
		var body []byte
		if err == nil {
			var zr *gzip.Reader
			if zr, err = gzip.NewReader(bytes.NewReader(raw)); err == nil {
				body, err = io.ReadAll(zr)
			}
		}
		if err != nil || len(body) == 0 {
			t.Errorf("%s: %d bytes, not a non-empty gzip stream: %v", filepath.Base(f), len(raw), err)
		}
	}
}

// TestSkipPolicyEmitsCSVHole: a failed cell under -on-cell-error=skip
// shows up in CSV output as an explicit "# hole:" comment, and the holed
// series is absent rather than zero.
func TestSkipPolicyEmitsCSVHole(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	cmd := rasbench(t, "-exp", "t3", "-insts", "40000", "-bench", "go,li",
		"-format", "csv", "-inject", "panic:3", "-on-cell-error", "skip")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("skip-policy run aborted: %v (stderr: %s)", err, errb.String())
	}
	csv := out.String()
	if !strings.Contains(csv, "# hole: t3: sweep: cell 3") {
		t.Errorf("CSV output carries no hole comment:\n%s", csv)
	}
	// The hole names where the panic happened, not the recover plumbing.
	if !strings.Contains(csv, "at faultinject/faultinject.go:") {
		t.Errorf("hole comment does not name the panic site:\n%s", csv)
	}
	// Cell 3 is (go, full): its series must be absent, its siblings present.
	if strings.Contains(csv, "t3,hit,go,full,") {
		t.Errorf("holed cell still emitted a CSV row:\n%s", csv)
	}
	if !strings.Contains(csv, "t3,hit,go,none,") {
		t.Errorf("sibling cells lost their CSV rows:\n%s", csv)
	}
}

// TestReportSweep: the -progress summary prints the utilization
// sweep.Utilization returns, which leaves out the worker that ended no
// cell, and cell times in milliseconds, so cells of 3 ms print a nonzero
// median.
func TestReportSweep(t *testing.T) {
	cell := func(i, w int) sweep.CellTiming {
		return sweep.CellTiming{Cell: i, Worker: w, Elapsed: 3 * time.Millisecond}
	}
	ws := []sweep.WorkerStats{
		{Worker: 0, Busy: 6 * time.Millisecond, Cells: []sweep.CellTiming{cell(0, 0), cell(2, 0)}},
		{Worker: 1, Busy: 3 * time.Millisecond, Cells: []sweep.CellTiming{cell(1, 1)}},
		{Worker: 2, Wait: 8 * time.Millisecond},
	}
	const wall = 8 * time.Millisecond
	var b strings.Builder
	reportSweep(&b, "t3", wall, ws)
	want := fmt.Sprintf("sweep t3: 3 cells, utilization %.0f%%, median cell 3.0ms\n", 100*sweep.Utilization(ws, wall))
	if b.String() != want || !strings.Contains(want, "utilization 56%") {
		t.Errorf("reportSweep printed %q, want %q at 9 ms busy over 2 workers × 8 ms", b.String(), want)
	}
}

// TestPrintCSVWellFormed: structured values render one sorted
// experiment,metric,bench,config,value row each.
func TestPrintCSVWellFormed(t *testing.T) {
	res := &experiments.Result{
		ID: "t3",
		Values: map[string]float64{
			"hit/go/full":  0.995,
			"hit/go/none":  0.72,
			"ipc/li/tos-p": 1.25,
		},
	}
	var b strings.Builder
	if err := printCSV(&b, res); err != nil {
		t.Fatal(err)
	}
	want := "t3,hit,go,full,0.995\n" +
		"t3,hit,go,none,0.72\n" +
		"t3,ipc,li,tos-p,1.25\n"
	if b.String() != want {
		t.Errorf("printCSV output:\n%q\nwant:\n%q", b.String(), want)
	}
}

// TestPrintCSVHoleComments: Result.Holes render as "# hole:" comment lines
// ahead of the data rows.
func TestPrintCSVHoleComments(t *testing.T) {
	res := &experiments.Result{
		ID:     "t3",
		Holes:  []string{"sweep: cell 3: panicked: boom"},
		Values: map[string]float64{"hit/go/none": 0.72},
	}
	var b strings.Builder
	if err := printCSV(&b, res); err != nil {
		t.Fatal(err)
	}
	want := "# hole: t3: sweep: cell 3: panicked: boom\n" +
		"t3,hit,go,none,0.72\n"
	if b.String() != want {
		t.Errorf("printCSV output:\n%q\nwant:\n%q", b.String(), want)
	}
}

// TestPrintCSVMalformedKey: a value key that does not split into
// metric/bench/config must surface as an error, not a panic (the seed
// indexed parts[1]/parts[2] unchecked).
func TestPrintCSVMalformedKey(t *testing.T) {
	for _, key := range []string{"badkey", "only/two"} {
		res := &experiments.Result{ID: "t9", Values: map[string]float64{key: 1}}
		var b strings.Builder
		err := printCSV(&b, res)
		if err == nil {
			t.Fatalf("key %q: printCSV accepted a malformed key", key)
		}
		if !strings.Contains(err.Error(), key) {
			t.Errorf("key %q: error %q does not name the key", key, err)
		}
	}
}
