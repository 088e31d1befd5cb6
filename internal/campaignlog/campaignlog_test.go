package campaignlog

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func open(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestRoundTrip: a full campaign lifecycle replays into exactly the state
// the server needs on restart.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir)
	spec := json.RawMessage(`{"exps":["t3"],"insts":20000}`)
	if err := l.Submit("c1", spec, "hash1", "scope1"); err != nil {
		t.Fatal(err)
	}
	if err := l.State("c1", "running", 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Table("c1", "t3", "== t3 ==\n", 2); err != nil {
		t.Fatal(err)
	}
	if err := l.Done("c1", "completed", ""); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2 := open(t, dir)
	cs := l2.Campaigns()
	if len(cs) != 1 {
		t.Fatalf("replayed %d campaigns, want 1", len(cs))
	}
	c := cs[0]
	if c.ID != "c1" || c.ConfigHash != "hash1" || c.Scope != "scope1" {
		t.Errorf("identity lost: %+v", c)
	}
	if string(c.Spec) != string(spec) {
		t.Errorf("spec = %s, want %s", c.Spec, spec)
	}
	if c.Status != "completed" || !c.Terminal() {
		t.Errorf("status = %q, want terminal completed", c.Status)
	}
	if c.Attempt != 1 {
		t.Errorf("attempt = %d, want 1", c.Attempt)
	}
	if c.Tables["t3"] != "== t3 ==\n" || c.Holes["t3"] != 2 {
		t.Errorf("table lost: %+v / %+v", c.Tables, c.Holes)
	}
	if c.Submitted == "" {
		t.Error("submit timestamp lost")
	}
	if st := l2.Stats(); st.Records != 4 || st.DroppedBytes != 0 {
		t.Errorf("stats = %+v, want 4 records, 0 dropped", st)
	}
}

// TestNonTerminalReadoption: a campaign whose lifecycle was cut before
// done replays as non-terminal with its attempt counter, which is what
// the server requeues.
func TestNonTerminalReadoption(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir)
	if err := l.Submit("c1", json.RawMessage(`{"exps":["t3"]}`), "h", "s"); err != nil {
		t.Fatal(err)
	}
	if err := l.State("c1", "running", 2); err != nil {
		t.Fatal(err)
	}
	// A table landed before the crash; re-adoption keeps it (it will be
	// superseded when the re-run re-logs).
	if err := l.Table("c1", "t3", "partial\n", 0); err != nil {
		t.Fatal(err)
	}
	l.Close()

	c := open(t, dir).Campaigns()[0]
	if c.Terminal() {
		t.Fatalf("interrupted campaign replayed terminal: %+v", c)
	}
	if c.Status != "running" || c.Attempt != 2 {
		t.Errorf("status/attempt = %q/%d, want running/2", c.Status, c.Attempt)
	}
}

// TestLatestRecordWins: re-logged state and tables supersede older ones,
// and a bare submit (no state yet) replays as queued.
func TestLatestRecordWins(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir)
	l.Submit("c1", json.RawMessage(`{}`), "h", "s")
	l.State("c1", "running", 1)
	l.Table("c1", "t3", "old\n", 1)
	l.State("c1", "queued", 2) // requeued after a restart
	l.State("c1", "running", 3)
	l.Table("c1", "t3", "new\n", 0)
	l.Done("c1", "completed_with_errors", "t4: boom")
	l.Submit("c2", json.RawMessage(`{}`), "h2", "s2")
	l.Close()

	cs := open(t, dir).Campaigns()
	if len(cs) != 2 || cs[0].ID != "c1" || cs[1].ID != "c2" {
		t.Fatalf("order lost: %+v", cs)
	}
	c := cs[0]
	if c.Tables["t3"] != "new\n" || c.Holes["t3"] != 0 {
		t.Errorf("latest table did not win: %+v %+v", c.Tables, c.Holes)
	}
	if c.Status != "completed_with_errors" || c.Error != "t4: boom" || c.Attempt != 3 {
		t.Errorf("fold = %q/%q/%d", c.Status, c.Error, c.Attempt)
	}
	if cs[1].Status != "queued" {
		t.Errorf("bare submit replayed as %q, want queued", cs[1].Status)
	}
}

// TestTornTailTruncated: the campaign log's recovery accounting over
// seglog's torn-tail handling — Records counts the folded records,
// DroppedBytes the torn bytes rasserve reports at boot, and the fold
// keeps the campaign's last good state.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir)
	l.Submit("c1", json.RawMessage(`{}`), "h", "s")
	l.Done("c1", "completed", "")
	l.Close()

	torn := `{"crc":123,"payload":{"type":"done","id":"c1","st`
	f, err := os.OpenFile(filepath.Join(dir, "seg-000001.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := open(t, dir)
	if st := l2.Stats(); st.Records != 2 || st.DroppedBytes != uint64(len(torn)) {
		t.Fatalf("recovery stats = %+v, want 2 records and %d dropped bytes", st, len(torn))
	}
	if c := l2.Campaigns()[0]; c.Status != "completed" {
		t.Errorf("replay after torn tail = %q", c.Status)
	}
}

// TestCorruptRecordStopsReplay: a record whose checksum no longer matches
// ends replay, so nothing after it folds into a campaign, and the lost
// bytes are reported.
func TestCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir)
	l.Submit("c1", json.RawMessage(`{}`), "h", "s")
	l.Done("c1", "completed", "")
	l.Close()

	path := filepath.Join(dir, "seg-000001.log")
	data, _ := os.ReadFile(path)
	lines := strings.SplitAfter(string(data), "\n")
	// Flip a payload byte in the first record; its CRC no longer matches.
	corrupted := strings.Replace(lines[0], `"type":"submit"`, `"type":"suXmit"`, 1) + lines[1]
	if corrupted == string(data) {
		t.Fatal("test setup: submit record not found")
	}
	if err := os.WriteFile(path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := open(t, dir)
	if len(l2.Campaigns()) != 0 {
		t.Errorf("corrupt-prefix segment replayed campaigns: %+v", l2.Campaigns())
	}
	if st := l2.Stats(); st.Records != 0 || st.DroppedBytes != uint64(len(corrupted)) {
		t.Errorf("recovery stats = %+v, want 0 records and %d dropped bytes", st, len(corrupted))
	}
}

// TestRotation: appends past the threshold rotate to a new segment, and
// replay folds records from every segment.
func TestRotation(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir)
	l.SetMaxSegmentBytes(256)
	for i := 0; i < 20; i++ {
		id := "c" + strings.Repeat("x", i%3) // a few distinct ids
		if err := l.State(id, "running", i); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("no rotation after 20 appends at 256-byte segments: %v", segs)
	}
	l2 := open(t, dir)
	if st := l2.Stats(); st.Records != 20 {
		t.Errorf("replayed %d records across %d segments, want 20", st.Records, len(segs))
	}
	if cs := l2.Campaigns(); len(cs) != 3 || cs[0].Attempt != 18 || cs[2].Attempt != 17 {
		t.Errorf("replayed campaigns = %+v, want c, cx, cxx at their latest attempts", cs)
	}
}

// TestAppendValidation: records without identity are rejected before
// they can poison the log.
func TestAppendValidation(t *testing.T) {
	l := open(t, t.TempDir())
	if err := l.Append(Record{Type: TypeState}); err == nil {
		t.Error("append without id succeeded")
	}
	if err := l.Append(Record{ID: "c1"}); err == nil {
		t.Error("append without type succeeded")
	}
}

// TestParentLogReplays pins the on-disk format across the move onto
// seglog: testdata/parent-log holds a segment rasserve wrote before that
// move (one t3 campaign, submitted to completion). It must replay to the
// same campaign without touching the file.
func TestParentLogReplays(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "parent-log", "seg-000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seg := filepath.Join(dir, "seg-000001.log")
	if err := os.WriteFile(seg, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	l := open(t, dir)
	if st := l.Stats(); st.Records != 4 || st.DroppedBytes != 0 {
		t.Errorf("stats = %+v, want 4 records, 0 dropped", st)
	}
	cs := l.Campaigns()
	if len(cs) != 1 {
		t.Fatalf("replayed %d campaigns, want 1", len(cs))
	}
	c := cs[0]
	if c.ID != "c1" || c.Status != "completed" || c.Attempt != 1 || c.Error != "" {
		t.Errorf("campaign = %+v, want c1 completed on attempt 1", c)
	}
	if string(c.Spec) != `{"exps":["t3"],"insts":5000,"workloads":["go"]}` {
		t.Errorf("spec = %s", c.Spec)
	}
	if len(c.Tables) != 1 || !strings.HasPrefix(c.Tables["t3"], "== t3: Table 3") {
		t.Errorf("tables = %q, want the one t3 table", c.Tables)
	}
	l.Close()
	if got, _ := os.ReadFile(seg); !bytes.Equal(got, golden) {
		t.Error("replaying the parent log modified it")
	}
}
