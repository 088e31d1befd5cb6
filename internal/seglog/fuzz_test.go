package seglog

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse feeds arbitrary bytes through the frame parser and then
// through a full Open/Append/Open cycle: whatever a crash, a bit flip, or
// a hostile file leaves in a segment, recovery must (a) never panic, (b)
// report a consumed prefix that re-parses to the same payloads, and (c)
// leave the log appendable — an append after recovery must survive the
// next Open. The committed corpus (testdata/fuzz/FuzzParse) covers the
// interesting shapes: valid frames, a torn tail, a checksum mismatch,
// JSON that is not a frame, blank lines, a campaign log written before
// seglog existed, and a result-store segment from before the store moved
// onto seglog.
func FuzzParse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"crc":2166136261,"payload":{}}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, consumed := parse(data)
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d outside [0, %d]", consumed, len(data))
		}
		again, consumed2 := parse(data[:consumed])
		if consumed2 != consumed || len(again) != len(payloads) {
			t.Fatalf("prefix re-parse diverged: %d/%d payloads, %d/%d bytes",
				len(again), len(payloads), consumed2, consumed)
		}
		for i := range payloads {
			if !bytes.Equal(again[i], payloads[i]) {
				t.Fatalf("payload %d re-parsed as %q, want %q", i, again[i], payloads[i])
			}
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-000001.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var replayed int
		l, err := Open(dir, func([]byte) { replayed++ })
		if err != nil {
			t.Fatalf("Open over fuzzed segment: %v", err)
		}
		if replayed != len(payloads) || l.DroppedBytes() != uint64(len(data)-consumed) {
			t.Fatalf("Open replayed %d payloads dropping %d bytes, parse found %d and %d",
				replayed, l.DroppedBytes(), len(payloads), len(data)-consumed)
		}
		want := []byte(`{"fuzz":true}`)
		if err := l.Append(want); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		l.Close()
		var last []byte
		l2, err := Open(dir, func(p []byte) { last = p })
		if err != nil {
			t.Fatalf("re-Open after recovery+append: %v", err)
		}
		defer l2.Close()
		if !bytes.Equal(last, want) || l2.DroppedBytes() != 0 {
			t.Fatalf("append after recovery lost: last payload %q, %d dropped bytes", last, l2.DroppedBytes())
		}
	})
}
