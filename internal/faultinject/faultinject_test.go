package faultinject

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParse(t *testing.T) {
	p, err := Parse("panic:3,hang:t3/7,corrupt:2", 42)
	if err != nil {
		t.Fatal(err)
	}
	fs := p.Faults()
	if len(fs) != 3 {
		t.Fatalf("parsed %d faults, want 3", len(fs))
	}
	want := []Fault{
		{Kind: KindCorrupt, Cell: 2},
		{Kind: KindPanic, Cell: 3},
		{Kind: KindHang, Exp: "t3", Cell: 7},
	}
	for i, f := range fs {
		if f != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, f, want[i])
		}
	}
}

func TestParseEmptyAndBad(t *testing.T) {
	if p, err := Parse("", 0); p != nil || err != nil {
		t.Errorf("empty spec: %v, %v", p, err)
	}
	for _, bad := range []string{"panic", "explode:3", "transient:3", "panic:y", "panic:-1"} {
		if _, err := Parse(bad, 0); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
	// Repeat counts existed for retry; a spec still carrying one is told so.
	for _, bad := range []string{"panic:3x2", "hang:t3/5x9", "panic:x"} {
		if _, err := Parse(bad, 0); err == nil || !strings.Contains(err.Error(), "repeat counts are gone") {
			t.Errorf("Parse(%q) = %v, want the repeat-count refusal", bad, err)
		}
	}
}

func TestNilPlanInjectsNothing(t *testing.T) {
	var p *Plan
	if err := p.Harness(context.Background(), "t3", 0); err != nil {
		t.Error(err)
	}
	if _, _, ok := p.Disturb("t3", 0); ok {
		t.Error("nil plan armed a disturber")
	}
	if p.Faults() != nil {
		t.Error("nil plan has faults")
	}
}

// TestPanicFiresOncePerCell: a panic fault fires once each time its cell
// runs — on every run, since a plan holds no state after Parse — and
// never for another cell or another experiment's scoped cell.
func TestPanicFiresOncePerCell(t *testing.T) {
	p, _ := Parse("panic:1,panic:t3/4", 0)
	fired := func(exp string, cell int) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		p.Harness(context.Background(), exp, cell)
		return false
	}
	for run := 1; run <= 3; run++ {
		if !fired("t3", 1) {
			t.Fatalf("run %d of cell 1 did not panic", run)
		}
	}
	if fired("t3", 0) {
		t.Error("unmatched cell panicked")
	}
	if !fired("f2", 1) {
		t.Error("exp-wildcard fault did not fire for the other experiment")
	}
	// The experiment-scoped fault does not leak into other experiments.
	if !fired("t3", 4) || fired("f2", 4) {
		t.Error("t3/4 fired outside t3 or not in it")
	}
}

func TestHangHonorsContext(t *testing.T) {
	p, _ := Parse("hang:0", 0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Harness(ctx, "t3", 0) }()
	select {
	case err := <-done:
		t.Fatalf("hang returned %v before cancellation", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("hang resolved with %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("hang ignored cancellation")
	}
}

func TestHangMaxBound(t *testing.T) {
	p, _ := Parse("hang:0", 0)
	p.MaxHang = 10 * time.Millisecond
	err := p.Harness(context.Background(), "t3", 0)
	if err == nil || errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "injected hang") {
		t.Fatalf("bounded hang resolved with %v, want the injected hang's error", err)
	}
}

func TestDisturbDeterministic(t *testing.T) {
	p, _ := Parse("corrupt:2", 7)
	every, addr, ok := p.Disturb("t3", 2)
	if !ok || every != 5000 {
		t.Fatalf("Disturb = %d, %v", every, ok)
	}
	if _, _, ok := p.Disturb("t3", 1); ok {
		t.Error("unmatched cell armed")
	}
	_, addr2, _ := p.Disturb("t3", 2)
	for cycle := uint64(0); cycle < 100; cycle++ {
		a, b := addr(cycle), addr2(cycle)
		if a != b {
			t.Fatalf("cycle %d: %#x vs %#x (not deterministic)", cycle, a, b)
		}
		if a%4 != 0 || a < 0x1000 || a >= 0x1000+0x40000 {
			t.Fatalf("cycle %d: address %#x outside the safe range", cycle, a)
		}
	}
	// Different seeds give different sequences.
	q, _ := Parse("corrupt:2", 8)
	_, addrQ, _ := q.Disturb("t3", 2)
	same := true
	for cycle := uint64(0); cycle < 10; cycle++ {
		if addr(cycle) != addrQ(cycle) {
			same = false
		}
	}
	if same {
		t.Error("seed does not influence the address sequence")
	}
}
