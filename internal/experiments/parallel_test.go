package experiments

import (
	"testing"
)

// TestParallelMatchesSerial is the sweep's determinism contract:
// running an experiment with any worker count must produce bit-identical
// structured values and rendered tables. t3 covers the plain simCell path
// (workloads x repair policies); f2 covers a depth sweep whose cells share
// a workload but differ in configuration; t3 after a warm-up has four
// workers start cells from each shared warm state at once. f1 and a5 form
// the largest lockstep units (14 and 6 members) with the most forks, so
// under four workers which worker runs each forked carrier, and when,
// varies from run to run; the results must not.
func TestParallelMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name, id string
		warmup   uint64
	}{{"t3", "t3", 0}, {"f2", "f2", 0}, {"t3-warmup", "t3", 20_000}, {"f1", "f1", 0}, {"a5", "a5", 0}} {
		id := tc.id
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			serial := Params{InstBudget: 20_000, Warmup: tc.warmup, Workloads: []string{"go", "li"}, Parallel: 1}
			par := serial
			par.Parallel = 4

			sres, err := Run(id, serial)
			if err != nil {
				t.Fatal(err)
			}
			pres, err := Run(id, par)
			if err != nil {
				t.Fatal(err)
			}

			if len(sres.Values) == 0 {
				t.Fatal("serial run produced no structured values")
			}
			if len(pres.Values) != len(sres.Values) {
				t.Fatalf("value count: serial %d, parallel %d", len(sres.Values), len(pres.Values))
			}
			for k, sv := range sres.Values {
				if pv, ok := pres.Values[k]; !ok || pv != sv {
					t.Errorf("%s: serial %v, parallel %v", k, sv, pres.Values[k])
				}
			}
			if s, p := sres.String(), pres.String(); s != p {
				t.Errorf("rendered output differs:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
			}
		})
	}
}
