package main

import (
	"testing"

	"retstack/internal/experiments"
	"retstack/internal/workloads"
)

func draw(seed int64, n int) []int {
	seq := newSpecSequence(seed)
	out := make([]int, n)
	for i := range out {
		out[i] = seq.next()
	}
	return out
}

// TestSpecSequenceSeeded pins that the serving probe's request sequence is a
// function of the seed alone: the same seed repeats it exactly, another
// seed gives another sequence.
func TestSpecSequenceSeeded(t *testing.T) {
	a, b, c := draw(7, 2000), draw(7, 2000), draw(8, 2000)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 drew %d then %d at position %d", a[i], b[i], i)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("seeds 7 and 8 drew the same sequence")
	}
}

// TestSpecSequenceMixesRepeatsAndFirsts checks the popularity shape the
// serving probe relies on: a head of specs that repeat (store reads) and a
// tail still seen for the first time late in a run (simulations).
func TestSpecSequenceMixesRepeatsAndFirsts(t *testing.T) {
	seq := draw(1, 3000)
	seen := map[int]bool{}
	late := 0
	for i, s := range seq {
		if !seen[s] && i >= 1000 {
			late++
		}
		seen[s] = true
	}
	if repeats := len(seq) - len(seen); repeats < len(seq)/2 {
		t.Errorf("only %d of %d requests repeat a spec", repeats, len(seq))
	}
	if late == 0 {
		t.Error("no spec is first requested after the first 1000 requests")
	}
}

func TestUniverseSpecsAreValid(t *testing.T) {
	specs := universe()
	if want := len(serveExps) * len(serveBudgets) * 28; len(specs) != want {
		t.Fatalf("%d specs, want %d", len(specs), want)
	}
	for _, s := range specs {
		for _, id := range s.Exps {
			if _, ok := experiments.Title(id); !ok {
				t.Errorf("unknown experiment %q", id)
			}
		}
		for _, w := range s.Workloads {
			if _, ok := workloads.ByName(w); !ok {
				t.Errorf("unknown workload %q", w)
			}
		}
	}
}
