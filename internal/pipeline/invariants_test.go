package pipeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"retstack/internal/config"
	"retstack/internal/core"
)

// TestInvariantsEveryCycle steps representative configurations cycle by
// cycle, auditing the bookkeeping after each one.
func TestInvariantsEveryCycle(t *testing.T) {
	cases := []struct {
		name string
		cfg  config.Config
		src  string
	}{
		{"single-path", config.Baseline().WithPolicy(core.RepairTOSPointerAndContents), corruptorProgram},
		{"no-repair", config.Baseline(), corruptorProgram},
		{"tight-shadow", func() config.Config {
			c := config.Baseline().WithPolicy(core.RepairFullStack)
			c.ShadowSlots = 2
			return c
		}(), corruptorProgram},
		{"2-path", mpConfig(2, config.MPPerPath), corruptorProgram},
		{"4-path-unified", mpConfig(4, config.MPUnified), fibProgram},
		{"8-path", mpConfig(8, config.MPUnifiedRepair), corruptorProgram},
		// Rings longer than one word of the candidate sets, whose head
		// crosses word boundaries as it wraps.
		{"ruu-65", func() config.Config {
			c := config.Baseline().WithPolicy(core.RepairTOSPointerAndContents)
			c.RUUSize = 65
			return c
		}(), corruptorProgram},
		{"ruu-128-2-path", func() config.Config {
			c := mpConfig(2, config.MPPerPath)
			c.RUUSize = 128
			return c
		}(), corruptorProgram},
		// One correct path per thread.
		{"2-thread-smt", func() config.Config {
			c := config.Baseline().WithPolicy(core.RepairFullStack)
			c.SMTThreads = 2
			return c
		}(), corruptorProgram},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			im := mustAssemble(t, c.src)
			s, err := New(c.cfg, im)
			if err != nil {
				t.Fatal(err)
			}
			for cyc := 0; cyc < 30_000 && !s.Done(); cyc++ {
				if err := s.StepForTest(); err != nil {
					t.Fatal(err)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("cycle %d: %v", cyc, err)
				}
			}
		})
	}
}

// TestInvariantsNameHandleFaults seeds the two ways a checkpoint handle
// can escape its one owner, a handle held by two RUU entries and a handle
// freed twice, and requires CheckInvariants to name each.
func TestInvariantsNameHandleFaults(t *testing.T) {
	s, err := New(config.Baseline().WithPolicy(core.RepairFullStack), mustAssemble(t, corruptorProgram))
	if err != nil {
		t.Fatal(err)
	}
	// Step until the RUU holds an entry with a checkpoint and one without.
	var holder, other *ruuEntry
	for cyc := 0; holder == nil || other == nil; cyc++ {
		if cyc == 10_000 {
			t.Fatal("no RUU entry held a checkpoint")
		}
		if err := s.StepForTest(); err != nil {
			t.Fatal(err)
		}
		holder, other = nil, nil
		for i := range s.ruu {
			switch e := &s.ruu[i]; {
			case s.ruuState[i] != ruuValid:
			case e.hasCheckpoint && holder == nil:
				holder = e
			case !e.hasCheckpoint && other == nil:
				other = e
			}
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	h := holder.checkpoint
	other.checkpoint, other.hasCheckpoint = h, true
	s.shadowUsed++ // the shadow slots still add up
	want := fmt.Sprintf("checkpoint handle %d is held by seq", h)
	if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a handle held twice: CheckInvariants = %v, want %q", err, want)
	}
	other.checkpoint, other.hasCheckpoint = 0, false
	s.shadowUsed--

	f := s.cpHandles[len(s.cpHandles)-1]
	s.cpHandles = append(s.cpHandles, f)
	want = fmt.Sprintf("checkpoint handle %d is free twice", f)
	if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a handle freed twice: CheckInvariants = %v, want %q", err, want)
	}
}

// TestRUUSetWalkMatchesRingScan checks the candidate sets' oldest-first
// walk against the plain ring scan it replaces, for rings of one word,
// exactly one word, just over one word and two words, at every head
// position, over random occupancies of the window the head starts.
func TestRUUSetWalkMatchesRingScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 63, 64, 65, 128} {
		for head := 0; head < n; head++ {
			for trial := 0; trial < 8; trial++ {
				count := rng.Intn(n + 1)
				b := newRUUSet(n)
				var want []int
				for k := 0; k < count; k++ {
					if idx := (head + k) % n; rng.Intn(2) == 0 {
						b.add(idx)
						want = append(want, idx)
					}
				}
				var got []int
				var w ruuWalk
				w.start(b, head)
				for {
					idx := w.next()
					if idx < 0 {
						break
					}
					got = append(got, idx)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("n=%d head=%d count=%d: walk %v, ring scan %v", n, head, count, got, want)
				}
			}
		}
	}
}

func TestTracerCapturesPipelineFlow(t *testing.T) {
	im := mustAssemble(t, fibProgram)
	s, err := New(config.Baseline().WithPolicy(core.RepairTOSPointerAndContents), im)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := &TextTracer{W: &buf, MaxEvents: 500}
	s.SetTracer(tr)
	if err := s.Run(200); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fetch", "dispatch", "complete", "commit"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q events:\n%s", want, out[:min(len(out), 400)])
		}
	}
	if tr.Count() == 0 || tr.Count() > 500 {
		t.Errorf("tracer count %d out of bounds", tr.Count())
	}
	// The cap must hold even if we keep running.
	s.SetTracer(tr)
	_ = s.Run(400)
	if tr.Count() > 500 {
		t.Errorf("MaxEvents not enforced: %d", tr.Count())
	}
}

func TestTracerSeesRecovery(t *testing.T) {
	im := mustAssemble(t, corruptorProgram)
	s, err := New(config.Baseline().WithPolicy(core.RepairTOSPointerAndContents), im)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s.SetTracer(&TextTracer{W: &buf, MaxEvents: 100_000})
	if err := s.Run(5_000); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "recover") || !strings.Contains(out, "squash") {
		t.Error("corruptor run should trace recoveries and squashes")
	}
}

func TestTraceKindStrings(t *testing.T) {
	for k := TraceFetch; k <= TraceForkResolve; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if TraceKind(99).String() == "" {
		t.Error("unknown kind should format")
	}
}
