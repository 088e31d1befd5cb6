package campaignlog

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLog feeds arbitrary bytes to Open as a campaign-log segment and
// then runs a Submit/Open cycle over the result. Frame parsing is
// seglog's (see its FuzzParse); this checks the campaign fold on top of
// it: whatever a crash, a bit flip, or a hostile file leaves in a
// segment, Open must (a) never panic or fail, (b) fold only records it
// counted, (c) replay the same campaigns again after cutting the damage
// away, and (d) leave the log appendable — a Submit after recovery must
// survive the next Open. Seeds are generated from a real log so the
// interesting shapes — valid lifecycles, torn tails, CRC flips,
// non-record JSON — are always in the corpus.
func FuzzLog(f *testing.F) {
	seedDir := f.TempDir()
	l, err := Open(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	l.Submit("c1", json.RawMessage(`{"exps":["t3"],"insts":20000}`), "hash", "scope")
	l.State("c1", "running", 1)
	l.Table("c1", "t3", "== t3 ==\nrow\n", 0)
	l.Done("c1", "completed", "")
	l.Close()
	valid, err := os.ReadFile(filepath.Join(seedDir, "seg-000001.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-7]) // torn tail
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)/2] ^= 0x20 // CRC mismatch mid-segment
	f.Add(flipped)
	f.Add([]byte("{\"not\":\"a record\"}\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-000001.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir)
		if err != nil {
			t.Fatalf("Open over fuzzed segment: %v", err)
		}
		defer l.Close()
		st := l.Stats()
		before := map[string]*Campaign{}
		for _, c := range l.Campaigns() {
			if c.ID == "" || c.Tables == nil || c.Holes == nil {
				t.Fatalf("fold produced a malformed campaign: %+v", c)
			}
			before[c.ID] = c
		}
		if uint64(len(before)) > st.Records || st.DroppedBytes > uint64(len(data)) {
			t.Fatalf("Open folded %d campaigns from %d records, dropping %d of %d bytes",
				len(before), st.Records, st.DroppedBytes, len(data))
		}
		if err := l.Submit("fz", json.RawMessage(`{}`), "h", "s"); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		l.Close()

		l2, err := Open(dir)
		if err != nil {
			t.Fatalf("re-Open after recovery+append: %v", err)
		}
		defer l2.Close()
		if st2 := l2.Stats(); st2.Records != st.Records+1 || st2.DroppedBytes != 0 {
			t.Fatalf("re-Open replayed %d records dropping %d bytes, want %d and 0",
				st2.Records, st2.DroppedBytes, st.Records+1)
		}
		var found *Campaign
		for _, c := range l2.Campaigns() {
			if c.ID == "fz" {
				found = c
			} else if !reflect.DeepEqual(c, before[c.ID]) {
				t.Fatalf("campaign %q replayed as %+v, first recovery gave %+v", c.ID, c, before[c.ID])
			}
		}
		if found == nil || !bytes.Equal(found.Spec, []byte(`{}`)) {
			t.Fatalf("record appended after recovery lost: %+v", found)
		}
	})
}
