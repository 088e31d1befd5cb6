// Package faultinject is a deterministic, seeded fault injector for the
// sweep harness — the adversarial counterpart to the paper's subject. The
// paper studies how a return-address stack survives corruption by
// wrong-path fetches; this package deliberately corrupts both the harness
// (panicking or hanging chosen cells) and the simulated RAS itself
// (overwriting top-of-stack entries mid-run), so the resilience machinery
// and the repair mechanisms can be exercised on demand.
//
// A Plan is parsed from the rasbench -inject dev flag:
//
//	panic:3              cell 3 of every experiment panics
//	hang:t3/7            cell 7 of t3 blocks until canceled (or MaxHang)
//	corrupt:2            cell 2's RAS top entry is overwritten periodically
//
// Everything is deterministic: a fault fires every time its (experiment,
// cell) runs, and corruption addresses come from a seeded splitmix
// sequence keyed by cycle, so an injected run is exactly reproducible:
// rerunning the same plan and seed corrupts the same cells identically.
// (Injected runs never touch the result store, so they have no resume;
// rerun them whole.)
//
// Paper alignment: corrupt faults must never crash a simulation. A
// corrupted entry either gets repaired by the configured checkpoint
// mechanism or surfaces as a return misprediction — exactly like the
// wrong-path corruption the paper measures (asserted by the experiments
// resilience tests).
package faultinject

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind is the fault class.
type Kind uint8

const (
	// KindPanic makes the cell body panic.
	KindPanic Kind = iota
	// KindHang blocks the cell until its context is canceled (or MaxHang
	// elapses), exercising watchdogs and cancellation.
	KindHang
	// KindCorrupt overwrites the simulated RAS top entry periodically
	// mid-run (see Disturb), exercising the paper's repair mechanisms.
	KindCorrupt
)

var kindNames = map[string]Kind{
	"panic": KindPanic, "hang": KindHang, "corrupt": KindCorrupt,
}

func (k Kind) String() string {
	for name, kk := range kindNames {
		if kk == k {
			return name
		}
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Fault is one injection rule.
type Fault struct {
	Kind Kind
	Exp  string // experiment id; "" matches every experiment
	Cell int
}

func (f Fault) matches(exp string, cell int) bool {
	return f.Cell == cell && (f.Exp == "" || f.Exp == exp)
}

// Plan is a parsed injection plan. The zero value (and nil) injects
// nothing; all methods are nil-safe so production paths carry no
// conditionals. A Plan is read-only once parsed, so concurrent cells
// share it freely.
type Plan struct {
	// Seed drives the corrupt-fault address sequence.
	Seed uint64
	// MaxHang bounds hang faults when nothing cancels the cell (default
	// 30s); the fault then fails the cell with an error.
	MaxHang time.Duration
	// DisturbEvery is the cycle period of corrupt faults (default 5000).
	DisturbEvery uint64

	faults []Fault
}

// Parse builds a Plan from a -inject spec (see the package comment). An
// empty spec yields a nil plan.
func Parse(spec string, seed uint64) (*Plan, error) {
	if spec == "" {
		return nil, nil
	}
	p := &Plan{Seed: seed}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kindStr, target, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("faultinject: %q: want kind:target", part)
		}
		kind, ok := kindNames[kindStr]
		if !ok {
			return nil, fmt.Errorf("faultinject: unknown kind %q (want panic, hang, or corrupt)", kindStr)
		}
		f := Fault{Kind: kind}
		if exp, rest, ok := strings.Cut(target, "/"); ok {
			f.Exp, target = exp, rest
		}
		if strings.Contains(target, "x") {
			return nil, fmt.Errorf("faultinject: %q: repeat counts are gone; a fault fires every time its cell runs", part)
		}
		cell, err := strconv.Atoi(target)
		if err != nil || cell < 0 {
			return nil, fmt.Errorf("faultinject: %q: bad cell index", part)
		}
		f.Cell = cell
		p.faults = append(p.faults, f)
	}
	return p, nil
}

// Faults returns the parsed rules (stable order, for logging).
func (p *Plan) Faults() []Fault {
	if p == nil {
		return nil
	}
	out := append([]Fault(nil), p.faults...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cell < out[j].Cell })
	return out
}

// Harness fires the harness-level fault (panic or hang) armed for this
// cell, if any. Call it at the top of a cell body.
func (p *Plan) Harness(ctx context.Context, exp string, cell int) error {
	if p == nil {
		return nil
	}
	for _, f := range p.faults {
		if !f.matches(exp, cell) {
			continue
		}
		switch f.Kind {
		case KindPanic:
			panic(fmt.Sprintf("faultinject: injected panic (exp %s cell %d)", exp, cell))
		case KindHang:
			limit := p.MaxHang
			if limit <= 0 {
				limit = 30 * time.Second
			}
			t := time.NewTimer(limit)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return fmt.Errorf("faultinject: injected hang (exp %s cell %d) outlasted %v", exp, cell, limit)
			}
		}
	}
	return nil
}

// Disturb reports whether a corrupt fault is armed for this cell and, if
// so, returns the cycle period and the deterministic address generator to
// feed pipeline.Sim.SetDisturber.
func (p *Plan) Disturb(exp string, cell int) (every uint64, addr func(cycle uint64) uint32, ok bool) {
	if p == nil {
		return 0, nil, false
	}
	for _, f := range p.faults {
		if f.Kind == KindCorrupt && f.matches(exp, cell) {
			every = p.DisturbEvery
			if every == 0 {
				every = 5000
			}
			return every, Addr(p.Seed ^ hashKey(exp, cell)), true
		}
	}
	return 0, nil, false
}

// Addr returns a deterministic garbage-address generator: a seeded
// splitmix64 sequence keyed by cycle, mapped into a low, word-aligned
// range so a corrupted prediction behaves like a stale return address
// (fetchable wrong-path target), not like a wild pointer.
func Addr(seed uint64) func(cycle uint64) uint32 {
	return func(cycle uint64) uint32 {
		x := seed + 0x9E3779B97F4A7C15*(cycle+1)
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		return uint32(0x1000 + (x%0x40000)&^3)
	}
}

func hashKey(exp string, cell int) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for i := 0; i < len(exp); i++ {
		h ^= uint64(exp[i])
		h *= 1099511628211
	}
	h ^= uint64(cell)
	h *= 1099511628211
	return h
}
