package seglog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"sync"
	"testing"
)

func mustOpen(t *testing.T, dir string, replay func([]byte)) *Log {
	t.Helper()
	l, err := Open(dir, replay)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// replayAll reopens dir and returns every replayed payload as a string.
func replayAll(t *testing.T, dir string) ([]string, *Log) {
	t.Helper()
	var got []string
	l := mustOpen(t, dir, func(p []byte) { got = append(got, string(p)) })
	return got, l
}

func appendAll(t *testing.T, l *Log, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFrameFormat pins the line format: exactly what encoding/json makes
// of a {crc, payload} struct, the campaign log's format before seglog
// existed, with the payload stored compacted.
func TestFrameFormat(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, nil)
	appendAll(t, l, "{\"type\": \"submit\",\n \"table\":\"a \\u003c b\"}")
	l.Close()

	compact := []byte(`{"type":"submit","table":"a \u003c b"}`)
	want, err := json.Marshal(struct {
		CRC     uint32          `json:"crc"`
		Payload json.RawMessage `json:"payload"`
	}{crc32.ChecksumIEEE(compact), compact})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(l.path(1))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want)+"\n" {
		t.Errorf("segment = %q, want %q", got, string(want)+"\n")
	}
	if payloads, _ := replayAll(t, dir); len(payloads) != 1 || payloads[0] != string(compact) {
		t.Errorf("replayed %q, want the compacted payload", payloads)
	}
}

// TestAppendRejectsNonJSON: a payload that is not JSON could never parse
// back, so it is refused instead of poisoning everything after it.
func TestAppendRejectsNonJSON(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, nil)
	if err := l.Append([]byte(`{"v":`)); err == nil {
		t.Fatal("appended a payload that is not JSON")
	}
	appendAll(t, l, `{"v":1}`)
	l.Close()
	if got, _ := replayAll(t, dir); len(got) != 1 {
		t.Fatalf("replayed %q, want the one valid append", got)
	}
}

// TestTornTailTruncated: a frame cut mid-write is dropped on open, the
// active segment is cut back to its valid prefix, and the next append
// survives the next open.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, nil)
	appendAll(t, l, `{"v":0}`, `{"v":1}`)
	l.Close()

	torn := `{"crc":123,"payload":{"v"`
	f, err := os.OpenFile(l.path(1), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, l2 := replayAll(t, dir)
	if len(got) != 2 || l2.DroppedBytes() != uint64(len(torn)) {
		t.Fatalf("replayed %q with %d dropped bytes, want 2 payloads and %d", got, l2.DroppedBytes(), len(torn))
	}
	appendAll(t, l2, `{"v":2}`)
	l2.Close()

	got, l3 := replayAll(t, dir)
	if strings.Join(got, " ") != `{"v":0} {"v":1} {"v":2}` || l3.DroppedBytes() != 0 {
		t.Fatalf("after heal: replayed %q with %d dropped bytes", got, l3.DroppedBytes())
	}
}

// TestCorruptRecordStopsReplay: a checksum mismatch drops that frame and
// everything after it in the segment — the prefix contract — without
// failing the open.
func TestCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, nil)
	appendAll(t, l, `{"v":0}`, `{"v":1}`, `{"v":2}`)
	l.Close()

	data, err := os.ReadFile(l.path(1))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Replace(data, []byte(`{"v":1}`), []byte(`{"v":9}`), 1)
	if err := os.WriteFile(l.path(1), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	got, l2 := replayAll(t, dir)
	if len(got) != 1 || got[0] != `{"v":0}` {
		t.Fatalf("replayed %q, want only the frame before the corruption", got)
	}
	if l2.DroppedBytes() == 0 {
		t.Error("corruption not reported in DroppedBytes")
	}
}

// TestRotation: appends past the threshold rotate to a new segment, and
// replay spans every segment in order.
func TestRotation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, nil)
	l.SetMaxSegmentBytes(64)
	var want []string
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf(`{"i":%d}`, i)
		want = append(want, p)
		appendAll(t, l, p)
	}
	l.Close()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("no rotation after 20 appends at 64-byte segments: %v", segs)
	}
	got, _ := replayAll(t, dir)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("replayed %q across %d segments, want %q", got, len(segs), want)
	}
}

// TestConcurrentAppends: appends from several goroutines, rotating as
// they go, all come back whole (run under -race in CI).
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, nil)
	l.SetMaxSegmentBytes(256)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := l.Append([]byte(fmt.Sprintf(`{"w":%d,"i":%d}`, w, i))); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()
	if got, l2 := replayAll(t, dir); len(got) != 100 || l2.DroppedBytes() != 0 {
		t.Fatalf("replayed %d payloads with %d dropped bytes, want 100 and none", len(got), l2.DroppedBytes())
	}
}

// TestTrim: eviction deletes whole oldest segments, never the active one,
// and replays only the survivors.
func TestTrim(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, nil)
	l.SetMaxSegmentBytes(64)
	for i := 0; i < 20; i++ {
		appendAll(t, l, fmt.Sprintf(`{"i":%d}`, i))
	}
	var got []string
	removed, err := l.Trim(100, func(p []byte) { got = append(got, string(p)) })
	if err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if removed == 0 || len(segs) == 0 || segs[len(segs)-1] != l.seg {
		t.Fatalf("Trim removed %d, left %v with active %d", removed, segs, l.seg)
	}
	if len(got) == 0 || len(got) >= 20 || got[len(got)-1] != `{"i":19}` {
		t.Fatalf("replay after Trim = %q, want only the newest records", got)
	}
	if removed, err := l.Trim(0, nil); err != nil || removed != len(segs)-1 {
		t.Fatalf("Trim(0) removed %d of %d segments (%v), want all but the active one", removed, len(segs), err)
	}
	appendAll(t, l, `{"i":20}`)
}

// TestUncutFailureRefusesAppends: when a failed append cannot be cut back,
// the log refuses appends — one behind a partial line would be lost —
// until it is reopened, which recovers every acknowledged record.
func TestUncutFailureRefusesAppends(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, nil)
	appendAll(t, l, `{"v":0}`)
	l.f.Close() // both the write and the cut-back now fail
	if err := l.Append([]byte(`{"v":1}`)); err == nil {
		t.Fatal("append to a closed file succeeded")
	}
	if err := l.Append([]byte(`{"v":2}`)); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("append after an uncut failure = %v, want a refusal", err)
	}
	got, l2 := replayAll(t, dir)
	appendAll(t, l2, `{"v":3}`)
	if len(got) != 1 || got[0] != `{"v":0}` {
		t.Fatalf("reopened log replayed %q, want the acknowledged record", got)
	}
	if l2.Close() != nil || l2.Close() != nil || l2.Append([]byte(`{}`)) != errClosed {
		t.Fatal("Close is not idempotent, or a closed log accepted an append")
	}
}
