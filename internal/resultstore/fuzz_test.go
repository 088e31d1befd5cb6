package resultstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSegment feeds arbitrary bytes to Open as a store segment and then
// runs a Put/Open/Get cycle over the result. Frame parsing is seglog's
// (see its FuzzParse); this checks the store's side of recovery: whatever
// a crash, a bit flip, or a hostile file leaves in a segment, Open must
// (a) never panic or fail, (b) index no key that did not come from a
// recovered record, (c) replay the same records again after cutting the
// damage away, and (d) leave the store appendable — a Put after recovery
// must survive the next Open. The committed corpus holds store segments
// covering valid records, a torn tail, a CRC mismatch, frames and lines
// that are not store records, and blank lines.
func FuzzSegment(f *testing.F) {
	corpus, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzSegment", "seed-*"))
	if err != nil {
		f.Fatal(err)
	}
	if len(corpus) == 0 {
		f.Fatal("seed corpus missing")
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("\n\n\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-000001.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open over fuzzed segment: %v", err)
		}
		defer s.Close()
		st := s.Stats()
		if uint64(s.Len()) > st.Recovered || st.DroppedBytes > uint64(len(data)) {
			t.Fatalf("Open indexed %d keys from %d records, dropping %d of %d bytes",
				s.Len(), st.Recovered, st.DroppedBytes, len(data))
		}
		key := CellKey("fuzz", "t3", 0)
		payload := []byte(`{"v":1}`)
		if err := s.Put(key, payload, Provenance{}); err != nil {
			t.Fatalf("Put after recovery: %v", err)
		}
		s.Close()

		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("re-Open after recovery+append: %v", err)
		}
		defer s2.Close()
		if st2 := s2.Stats(); st2.Recovered != st.Recovered+1 || st2.DroppedBytes != 0 {
			t.Fatalf("re-Open recovered %d records dropping %d bytes, want %d and 0",
				st2.Recovered, st2.DroppedBytes, st.Recovered+1)
		}
		got, _, ok := s2.Get(key)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("record appended after recovery lost: %q, %v", got, ok)
		}
	})
}
