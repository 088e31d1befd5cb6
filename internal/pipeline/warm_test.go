package pipeline

import (
	"reflect"
	"strings"
	"testing"

	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/workloads"
)

// warmKeyFields classifies every Config field, nested cache geometry by
// its own fields, as read by FastForward (true: part of WarmKey) or not.
// A field added to Config fails TestWarmKeyClassifiesEveryField until it
// is classified here.
var warmKeyFields = map[string]bool{
	"FetchWidth": false, "DecodeWidth": false, "IssueWidth": false, "CommitWidth": false,
	"RUUSize": false, "LSQSize": false,
	"IntALUs": false, "IntMults": false, "MemPorts": false,
	"MulLat": false, "DivLat": false, "BranchLat": false,

	"SpecHistory": true,
	"DirPred":     true, "GAgHistBits": true, "PAgEntries": true, "PAgHistBits": true, "SelectorSize": true,
	"BTBSets": true, "BTBWays": true,

	"IndirectPred": false, "TCSizeBits": false, "TCHistBits": false,

	"ReturnPred": true, "RASKind": true, "RASEntries": true,
	"RASPolicy": false, "RASTopK": false, "ShadowSlots": false,

	"L1I.SizeBytes": true, "L1I.Ways": true, "L1I.LineBytes": true, "L1I.HitLatency": false,
	"L1D.SizeBytes": true, "L1D.Ways": true, "L1D.LineBytes": true, "L1D.HitLatency": false,
	"L2.SizeBytes": true, "L2.Ways": true, "L2.LineBytes": true, "L2.HitLatency": false,
	"MemLatency": false, "MSHRs": false,

	"MaxPaths": false, "MPStacks": false, "ConfThreshold": false,
	"SMTThreads": true, "SMTSharedRAS": false,
}

// configLeaves returns the dotted name and field index path of every
// scalar field of Config, descending into struct-typed fields.
func configLeaves(t reflect.Type, prefix string, index []int) (names []string, paths [][]int) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		idx := append(append([]int(nil), index...), i)
		if f.Type.Kind() == reflect.Struct {
			n, p := configLeaves(f.Type, prefix+f.Name+".", idx)
			names, paths = append(names, n...), append(paths, p...)
			continue
		}
		names, paths = append(names, prefix+f.Name), append(paths, idx)
	}
	return names, paths
}

// mutate sets a scalar field to another value: ints double (0 becomes 1),
// unsigned fields step down by one (0 steps up), bools flip.
func mutate(t *testing.T, name string, f reflect.Value) {
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Int:
		if f.Int() == 0 {
			f.SetInt(1)
		} else {
			f.SetInt(2 * f.Int())
		}
	case reflect.Uint, reflect.Uint8:
		if f.Uint() > 0 {
			f.SetUint(f.Uint() - 1)
		} else {
			f.SetUint(1)
		}
	default:
		t.Fatalf("Config.%s: no mutation for kind %s", name, f.Kind())
	}
}

// TestWarmKeyClassifiesEveryField proves WarmKey: changing any one Config
// field inside the key changes the key, and changing any one field
// outside it leaves both the key and the warm state Warm builds deeply
// equal. Each field is mutated from several base machines, so fields that
// only matter under some stack kind or predictor mode are exercised where
// they do; a mutation a base rejects as invalid is skipped there, but
// every field must be exercised by at least one base.
func TestWarmKeyClassifiesEveryField(t *testing.T) {
	w, _ := workloads.ByName("li")
	im, err := w.Build(w.ScaleFor(100_000))
	if err != nil {
		t.Fatal(err)
	}
	const warmup = 20_000
	topK := config.Baseline().WithPolicy(core.RepairTOSPointer)
	topK.RASKind, topK.RASTopK = config.RASTopK, 2
	spec := config.Baseline().WithPolicy(core.RepairTOSPointerAndContents)
	spec.SpecHistory = true
	linked := config.Baseline()
	linked.RASKind = config.RASLinked
	bases := map[string]config.Config{"baseline": config.Baseline(), "top-k": topK, "spec-history": spec, "linked": linked}

	names, paths := configLeaves(reflect.TypeOf(config.Config{}), "", nil)
	for _, name := range names {
		if _, ok := warmKeyFields[name]; !ok {
			t.Errorf("Config.%s is not classified: add it to warmKeyFields, and to WarmKey if FastForward reads it", name)
		}
	}
	if len(warmKeyFields) != len(names) {
		t.Errorf("warmKeyFields classifies %d fields, Config has %d: remove the stale ones", len(warmKeyFields), len(names))
	}

	exercised := map[string]bool{}
	for bname, base := range bases {
		want, err := Warm(base, im, warmup, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range names {
			inKey, ok := warmKeyFields[name]
			if !ok {
				continue
			}
			cfg := base
			mutate(t, name, reflect.ValueOf(&cfg).Elem().FieldByIndex(paths[i]))
			if cfg.Validate() != nil {
				continue
			}
			exercised[name] = true
			if keyChanged := WarmKeyOf(cfg) != WarmKeyOf(base); keyChanged != inKey {
				t.Errorf("%s: Config.%s is classified in-key=%v, but changing it changes the key: %v", bname, name, inKey, keyChanged)
				continue
			}
			if inKey {
				continue
			}
			got, err := Warm(cfg, im, warmup, nil)
			if err != nil {
				t.Errorf("%s: Config.%s changed: %v", bname, name, err)
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: changing Config.%s, outside the warm key, changed the warm state", bname, name)
			}
		}
	}
	for _, name := range names {
		if !exercised[name] {
			t.Errorf("Config.%s: no base accepts its mutation; add a base that does", name)
		}
	}
}

// TestNewFromWarmRejectsMismatch: a warm state starts only cells of its
// own image and key, and SMT machines, which FastForward refuses, get
// no warm state at all.
func TestNewFromWarmRejectsMismatch(t *testing.T) {
	im := mustAssemble(t, corruptorProgram)
	cfg := config.Baseline()
	ws, err := Warm(cfg, im, 1_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFromWarm(cfg.WithPolicy(core.RepairFullStack), im, ws, nil); err != nil {
		t.Errorf("another repair policy shares the key, but: %v", err)
	}
	if _, err := NewFromWarm(cfg.WithRASEntries(16), im, ws, nil); err == nil {
		t.Error("a stack of another size started from the warm state")
	}
	if _, err := NewFromWarm(cfg, mustAssemble(t, sumProgram), ws, nil); err == nil {
		t.Error("another image started from the warm state")
	}
	if _, err := Warm(smtConfig(2, false), im, 1_000, nil); err == nil || !strings.Contains(err.Error(), "single-thread") {
		t.Errorf("Warm on an SMT machine: %v, want FastForward's single-thread error", err)
	}
}
