package pipeline

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"retstack/internal/bpred"
	"retstack/internal/cache"
	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden files from this build's output")

// ffwdCounters is what one clone's fast-forward leaves behind in counters:
// the Sim's statistics with the machine's predecode and block counters
// folded in as Run folds them, the machine's instruction mix and call
// depth, and the counters of each cache level, the hybrid predictor, the
// BTB and the return stack.
type ffwdCounters struct {
	Stats       Stats
	InstCount   uint64
	ClassCounts [16]uint64
	Calls       uint64
	Returns     uint64
	MaxDepth    int
	L1I         cache.Stats
	L1D         cache.Stats
	L2          cache.Stats
	Hybrid      bpred.HybridStats
	BTB         bpred.BTBStats
	RAS         core.Stats
}

// TestFastForwardCountersMatchGolden pins fast-forward to a fixed point:
// every counter it moves, for each SPEC clone after 500k instructions at
// the baseline configuration, block dispatch counters included. The
// reference tests compare fast-forward only against itself on another
// path and zero the block counters first; this one notices when both
// paths move, or when the block loop counts differently. An intended
// change regenerates the file with -update.
func TestFastForwardCountersMatchGolden(t *testing.T) {
	const warm = 500_000
	got := map[string]ffwdCounters{}
	for _, name := range workloads.SPECNames() {
		s, err := New(config.Baseline(), cloneImage(t, name, warm))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.FastForward(warm); err != nil {
			t.Fatal(err)
		}
		s.foldPredecodeStats()
		s.foldBlockStats()
		m := s.Machine()
		got[name] = ffwdCounters{
			Stats: *s.Stats(), InstCount: m.InstCount, ClassCounts: m.ClassCounts,
			Calls: m.Calls, Returns: m.Returns, MaxDepth: m.MaxDepth,
			L1I: s.hier.L1I.Stats(), L1D: s.hier.L1D.Stats(), L2: s.hier.L2.Stats(),
			Hybrid: s.hybrid.Stats, BTB: s.btb.Stats, RAS: *s.paths[0].ras.Stats(),
		}
	}
	out, err := json.MarshalIndent(got, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	golden := filepath.Join("testdata", "ffwd-counters.golden")
	if *update {
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("fast-forward counters differ from %s (rerun with -update if intended):\n%s", golden, out)
	}
}

func TestFastForwardThenSimulate(t *testing.T) {
	im := mustAssemble(t, corruptorProgram)
	ref := runRef(t, im)

	cfg := config.Baseline().WithPolicy(core.RepairTOSPointerAndContents)
	s, err := New(cfg, im)
	if err != nil {
		t.Fatal(err)
	}
	const warm = 10_000
	n, err := s.FastForward(warm)
	if err != nil {
		t.Fatal(err)
	}
	if n != warm {
		t.Fatalf("fast-forwarded %d, want %d", n, warm)
	}
	if s.Stats().FastForwarded != warm || s.Stats().Committed != 0 {
		t.Fatal("fast-forward accounting wrong")
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	// Architectural result identical: warmup + cycle sim covers the whole
	// program exactly once.
	if s.Machine().Output() != ref.Output() {
		t.Errorf("output %q, want %q", s.Machine().Output(), ref.Output())
	}
	if got := s.Stats().FastForwarded + s.Stats().Committed; got != ref.InstCount {
		t.Errorf("ff+committed = %d, want %d", got, ref.InstCount)
	}
}

func TestFastForwardWarmsStructures(t *testing.T) {
	im := mustAssemble(t, corruptorProgram)
	cfg := config.Baseline().WithPolicy(core.RepairTOSPointerAndContents)

	cold, err := New(cfg, im)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Run(10_000); err != nil {
		t.Fatal(err)
	}

	warm, err := New(cfg, im)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.FastForward(10_000); err != nil {
		t.Fatal(err)
	}
	preAccesses := warm.Caches().L1I.Stats().Accesses
	if preAccesses == 0 {
		t.Error("fast mode should access the I-cache")
	}
	if warm.BTB().Stats.Updates == 0 {
		t.Error("fast mode should train the BTB")
	}
	if warm.DirPredictor().Stats.Lookups == 0 {
		t.Error("fast mode should train the direction predictor")
	}
	if err := warm.Run(10_000); err != nil {
		t.Fatal(err)
	}
	// Warmed run should not be slower than the cold run over the same
	// window length (it skips the cold-start misses), modulo the window
	// being a different program phase; allow generous slack.
	if warm.Stats().IPC() < cold.Stats().IPC()*0.8 {
		t.Errorf("warmed IPC %.3f much worse than cold %.3f",
			warm.Stats().IPC(), cold.Stats().IPC())
	}
}

func TestFastForwardAfterStartRejected(t *testing.T) {
	im := mustAssemble(t, sumProgram)
	s, err := New(config.Baseline(), im)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FastForward(10); err == nil {
		t.Error("FastForward after Run should be rejected")
	}
}

func TestFastForwardStopsAtHalt(t *testing.T) {
	im := mustAssemble(t, sumProgram)
	ref := runRef(t, im)
	s, err := New(config.Baseline(), im)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.FastForward(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if n != ref.InstCount {
		t.Errorf("fast-forward ran %d, want %d (whole program)", n, ref.InstCount)
	}
	if !s.Machine().Halted {
		t.Error("machine should be halted")
	}
}

func TestFastForwardSpecHistoryMode(t *testing.T) {
	im := mustAssemble(t, corruptorProgram)
	cfg := config.Baseline().WithPolicy(core.RepairTOSPointerAndContents)
	cfg.SpecHistory = true
	s, err := New(cfg, im)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FastForward(5_000); err != nil {
		t.Fatal(err)
	}
	ref := runRef(t, im)
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if s.Machine().Output() != ref.Output() {
		t.Error("spec-history warmup diverged architecturally")
	}
}

// TestFastForwardAllocsIndependentOfLength: fast mode allocates per call,
// never per instruction, block or transfer. Once a SPEC clone's
// fast-forward has touched its working set (its data pages, its deepest
// calls), going on for 500k more instructions allocates as many objects
// as going on for 10k.
func TestFastForwardAllocsIndependentOfLength(t *testing.T) {
	for _, name := range workloads.SPECNames() {
		s, err := New(config.Baseline(), cloneImage(t, name, 2_000_000))
		if err != nil {
			t.Fatal(err)
		}
		ffwd := func(n uint64) {
			if _, err := s.FastForward(n); err != nil {
				t.Fatal(err)
			}
		}
		ffwd(500_000)
		short := testing.AllocsPerRun(1, func() { ffwd(10_000) })
		long := testing.AllocsPerRun(1, func() { ffwd(500_000) })
		if s.Machine().Halted {
			t.Fatalf("%s halted: the comparison is vacuous", name)
		}
		if short != long {
			t.Errorf("%s: fast-forward allocates %.0f objects over 10k instructions, %.0f over 500k", name, short, long)
		}
	}
}
