package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"retstack/internal/campaignlog"
	"retstack/internal/resultstore"
)

// durableServer builds a server over caller-owned store and queue
// directories, so a test can "restart" it by building another one over
// the same dirs.
func durableServer(t *testing.T, storeDir, queueDir string) (*server, *httptest.Server) {
	t.Helper()
	st, err := resultstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	st.SetTool("rasserve")
	qlog, err := campaignlog.Open(queueDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { qlog.Close() })
	srv := newServer(context.Background(), st, qlog, 2, 2)
	srv.recover()
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// waitTerminal polls the status endpoint until the campaign reaches a
// terminal state (the stream helper cannot be used when the campaign
// may already be terminal-from-replay with no live goroutine).
func waitTerminal(t *testing.T, ts *httptest.Server, id string) view {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, body := get(t, ts, "/campaigns/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %s: %d: %s", id, code, body)
		}
		var v view
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatal(err)
		}
		if terminal(v.Status) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s still %q after 2m", id, v.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDurableTerminalServedFromLog: a completed campaign survives a
// server restart — status, identity, and byte-identical tables are
// served straight from the campaign log, with no re-execution.
func TestDurableTerminalServedFromLog(t *testing.T) {
	storeDir, queueDir := t.TempDir(), t.TempDir()
	srv1, ts1 := durableServer(t, storeDir, queueDir)
	v := submit(t, ts1, `{"exps":["t3"],"insts":15000,"workloads":["go","li"]}`)
	stream(t, ts1, v.ID)
	_, tables1 := get(t, ts1, "/campaigns/"+v.ID+"/tables")
	executed := srv1.store.Stats().Puts
	if executed != 8 {
		t.Fatalf("first server persisted %d cells, want 8", executed)
	}
	ts1.Close()
	srv1.qlog.Close()
	srv1.store.Close()

	srv2, ts2 := durableServer(t, storeDir, queueDir)
	got := waitTerminal(t, ts2, v.ID)
	if got.Status != "completed" {
		t.Fatalf("replayed campaign status = %q, want completed", got.Status)
	}
	if got.ConfigHash != v.ConfigHash || got.Scope != v.Scope {
		t.Errorf("replay changed identity: %+v vs %+v", got, v)
	}
	code, tables2 := get(t, ts2, "/campaigns/"+v.ID+"/tables")
	if code != http.StatusOK {
		t.Fatalf("replayed tables: %d", code)
	}
	if tables2 != tables1 {
		t.Errorf("replayed tables differ:\n--- live ---\n%s--- replayed ---\n%s", tables1, tables2)
	}
	// The replay served from the log: nothing simulated, nothing even
	// read from the store.
	if s := srv2.store.Stats(); s.Puts != 0 || s.Hits != 0 {
		t.Errorf("replaying a terminal campaign touched the store: %+v", s)
	}
	// The result events resurface on the stream, marked recovered.
	events := stream(t, ts2, v.ID)
	res := last(t, events, "result")
	if res["recovered"] != true {
		t.Errorf("replayed result event not marked recovered: %v", res)
	}
	// New submissions must not collide with replayed IDs.
	w := submit(t, ts2, `{"exps":["t1"]}`)
	if w.ID == v.ID {
		t.Fatalf("new campaign reused replayed id %s", v.ID)
	}
	waitTerminal(t, ts2, w.ID)
}

// TestDurableReadoption is the in-process half of the kill-and-recover
// contract: a campaign whose log ends mid-flight (submit + running, no
// terminal record) is re-adopted on boot, requeued with its attempt
// counter bumped, re-executes entirely from store hits, and renders
// tables byte-identical to the uninterrupted run.
func TestDurableReadoption(t *testing.T) {
	storeDir, queueDir := t.TempDir(), t.TempDir()

	// A first life completes the campaign and warms the store...
	srv1, ts1 := durableServer(t, storeDir, t.TempDir())
	v := submit(t, ts1, `{"exps":["t3"],"insts":15000,"workloads":["go","li"]}`)
	stream(t, ts1, v.ID)
	_, wantTables := get(t, ts1, "/campaigns/"+v.ID+"/tables")
	ts1.Close()
	srv1.qlog.Close()

	// ...while the queue dir is forged to look like a crash mid-run:
	// submitted, started (attempt 1), never finished.
	rawSpec, _ := json.Marshal(v.Spec)
	qlog, err := campaignlog.Open(queueDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := qlog.Append(campaignlog.Record{
		Type: campaignlog.TypeSubmit, ID: v.ID, Spec: rawSpec,
		ConfigHash: v.ConfigHash, Scope: v.Scope,
		Time: v.Submitted.Format(time.RFC3339Nano),
	}); err != nil {
		t.Fatal(err)
	}
	if err := qlog.Append(campaignlog.Record{
		Type: campaignlog.TypeState, ID: v.ID, Status: "running", Attempt: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := qlog.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := durableServer(t, storeDir, queueDir)
	got := waitTerminal(t, ts2, v.ID)
	if got.Status != "completed" {
		t.Fatalf("re-adopted campaign ended %q (%s)", got.Status, got.Error)
	}
	if !got.Recovered {
		t.Error("re-adopted campaign not marked recovered")
	}
	if got.Attempt != 2 {
		t.Errorf("re-adopted attempt = %d, want 2 (crashed attempt was 1)", got.Attempt)
	}
	if got.Hits != 8 || got.Executed != 0 {
		t.Errorf("re-adoption hits=%d executed=%d, want 8 hits / 0 executed (store-warm rerun)", got.Hits, got.Executed)
	}
	code, tables := get(t, ts2, "/campaigns/"+v.ID+"/tables")
	if code != http.StatusOK || tables != wantTables {
		t.Errorf("re-adopted tables differ from the uninterrupted run (code %d)", code)
	}
	events := stream(t, ts2, v.ID)
	rec := last(t, events, "campaign_recovered")
	if rec["prior_status"] != "running" {
		t.Errorf("campaign_recovered = %v, want prior_status running", rec)
	}
	// Recovery counters surface on /readyz and /metrics.
	_, ready := get(t, ts2, "/readyz")
	if !strings.Contains(ready, `"recovered": 1`) || !strings.Contains(ready, `"requeued": 1`) {
		t.Errorf("readyz missing recovery counters: %s", ready)
	}
	_, metrics := get(t, ts2, "/metrics")
	for _, want := range []string{
		"retstack_queue_recovered_total 1",
		"retstack_queue_requeued_total 1",
		"retstack_queue_depth 0",
		"retstack_server_degraded 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	_ = srv2
}

// TestReadoptionFailsUndecodableSpec: a log written before the retry
// policy was retired can hold a spec saying "on_cell_error":"retry". A
// campaign still running at the restart fails with the spec's decode
// error, not as a lost spec; a completed one logged the same way still
// serves its tables from the log; and a campaign whose submit record is
// gone still fails as a lost spec.
func TestReadoptionFailsUndecodableSpec(t *testing.T) {
	queueDir := t.TempDir()
	spec := json.RawMessage(`{"exps":["t1"],"insts":15000,"on_cell_error":"retry","retries":3}`)
	qlog, err := campaignlog.Open(queueDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []campaignlog.Record{
		{Type: campaignlog.TypeSubmit, ID: "c1", Spec: spec},
		{Type: campaignlog.TypeState, ID: "c1", Status: "running", Attempt: 1},
		{Type: campaignlog.TypeSubmit, ID: "c2", Spec: spec},
		{Type: campaignlog.TypeTable, ID: "c2", Exp: "t1", Table: "== t1 ==\n"},
		{Type: campaignlog.TypeDone, ID: "c2", Status: "completed"},
		{Type: campaignlog.TypeState, ID: "c3", Status: "running", Attempt: 1},
	} {
		if err := qlog.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := qlog.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts := durableServer(t, t.TempDir(), queueDir)
	got := waitTerminal(t, ts, "c1")
	if got.Status != "failed" || !strings.Contains(got.Error, `unknown cell-error policy "retry" (want abort or skip)`) {
		t.Errorf("retry campaign ended %q (%s), want failed with the decode error", got.Status, got.Error)
	}
	if code, tables := get(t, ts, "/campaigns/c2/tables"); code != http.StatusOK || tables != "== t1 ==\n" {
		t.Errorf("completed retry campaign's tables: %d %q, want 200 and the logged table", code, tables)
	}
	if got := waitTerminal(t, ts, "c3"); got.Status != "failed" || got.Error != "campaign log lost the spec" {
		t.Errorf("spec-less campaign ended %q (%s), want failed as a lost spec", got.Status, got.Error)
	}
}

// TestServeDegradedMode: a store whose Puts start failing must not fail
// campaigns — they complete uncached, the server reports degraded on
// /healthz and the retstack_server_degraded gauge, and later campaigns
// skip the store entirely.
func TestServeDegradedMode(t *testing.T) {
	srv, ts := testServer(t)
	srv.store.SetPutFault(func() error { return errors.New("no space left on device") })

	v := submit(t, ts, `{"exps":["t3"],"insts":15000,"workloads":["go","li"]}`)
	events := stream(t, ts, v.ID)
	done := last(t, events, "campaign_done")
	if done["status"] != "completed" {
		t.Fatalf("campaign under store fault ended %v, want completed", done)
	}
	if n := count(events, "cell_done"); n != 8 {
		t.Errorf("degraded campaign executed %d cells, want 8", n)
	}
	code, health := get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz while degraded: %d (degraded is a mode, not an outage)", code)
	}
	if !strings.Contains(health, `"degraded": true`) || !strings.Contains(health, "no space left") {
		t.Errorf("healthz does not report the degradation: %s", health)
	}
	_, metrics := get(t, ts, "/metrics")
	if !strings.Contains(metrics, "retstack_server_degraded 1") {
		t.Errorf("metrics missing degraded gauge:\n%s", metrics)
	}

	// Even with the fault cleared, the server stays in compute-without-
	// cache mode: a resubmit re-executes rather than trusting the store.
	srv.store.SetPutFault(nil)
	w := submit(t, ts, `{"exps":["t3"],"insts":15000,"workloads":["go","li"]}`)
	wevents := stream(t, ts, w.ID)
	if n := count(wevents, "cell_cached"); n != 0 {
		t.Errorf("degraded server served %d cached cells, want 0", n)
	}
	if n := count(wevents, "cell_done"); n != 8 {
		t.Errorf("degraded resubmit executed %d cells, want 8", n)
	}
}

// TestServeCompletedWithErrors is the continue-on-error contract: one
// experiment failing (every t3 cell trips a 1ms watchdog under
// on_cell_error=abort) must not take down the campaign — t1 still
// renders, the status is completed_with_errors, and the tables endpoint
// serves what exists.
func TestServeCompletedWithErrors(t *testing.T) {
	_, ts := testServer(t)
	v := submit(t, ts, `{"exps":["t1","t3"],"insts":2000000,"workloads":["go","li"],"cell_timeout_ms":1,"on_cell_error":"abort"}`)
	events := stream(t, ts, v.ID)
	done := last(t, events, "campaign_done")
	if done["status"] != "completed_with_errors" {
		t.Fatalf("campaign ended %v, want completed_with_errors", done)
	}
	if n := count(events, "experiment_error"); n != 1 {
		t.Errorf("%d experiment_error events, want 1 (t3)", n)
	}
	ee := last(t, events, "experiment_error")
	if ee["exp"] != "t3" {
		t.Errorf("failing experiment = %v, want t3", ee["exp"])
	}
	got := waitTerminal(t, ts, v.ID)
	if !strings.Contains(got.Error, "t3:") {
		t.Errorf("campaign error %q does not attribute the t3 failure", got.Error)
	}
	code, tables := get(t, ts, "/campaigns/"+v.ID+"/tables")
	if code != http.StatusOK {
		t.Fatalf("tables for completed_with_errors: %d, want 200", code)
	}
	if !strings.Contains(tables, "Table 1") || strings.Contains(tables, "Table 3") {
		t.Errorf("tables = %q, want t1 rendered and t3 absent", tables)
	}
}

// TestServeBadPolicy: the policy knobs validate at submission, and the
// retired retry policy and its retries field are refused.
func TestServeBadPolicy(t *testing.T) {
	_, ts := testServer(t)
	for _, tc := range []struct{ name, spec string }{
		{"bad on_cell_error", `{"exps":["t3"],"on_cell_error":"explode"}`},
		{"retired retry policy", `{"exps":["t3"],"on_cell_error":"retry"}`},
		{"retired retries", `{"exps":["t3"],"retries":3}`},
		{"negative timeout", `{"exps":["t3"],"cell_timeout_ms":-5}`},
	} {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(tc.spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestServeSSEResume: every SSE frame carries its offset as the event
// id, and a client reconnecting with Last-Event-ID (or ?from=N) resumes
// exactly after the last frame it saw. Offsets past the end clamp.
func TestServeSSEResume(t *testing.T) {
	_, ts := testServer(t)
	v := submit(t, ts, `{"exps":["t3"],"insts":15000,"workloads":["go","li"]}`)
	stream(t, ts, v.ID) // wait for completion

	ids, datas := sseFrames(t, ts, "/campaigns/"+v.ID+"/results?sse=1", "")
	if len(ids) == 0 || len(ids) != len(datas) {
		t.Fatalf("full SSE replay: %d ids, %d frames", len(ids), len(datas))
	}
	for i, id := range ids {
		if id != i {
			t.Fatalf("frame %d carries id %d, want sequential offsets", i, id)
		}
	}
	total := len(ids)

	// Resume after the antepenultimate event: exactly two frames remain.
	rids, rdatas := sseFrames(t, ts, "/campaigns/"+v.ID+"/results?sse=1", fmt.Sprint(total-3))
	if len(rids) != 2 || rids[0] != total-2 || rids[1] != total-1 {
		t.Fatalf("Last-Event-ID resume returned ids %v, want [%d %d]", rids, total-2, total-1)
	}
	if rdatas[0] != datas[total-2] || rdatas[1] != datas[total-1] {
		t.Error("resumed frames differ from the original replay")
	}

	// ?from works the same without the header, and clamps past the end.
	fids, _ := sseFrames(t, ts, fmt.Sprintf("/campaigns/%s/results?sse=1&from=%d", v.ID, total-1), "")
	if len(fids) != 1 || fids[0] != total-1 {
		t.Fatalf("?from resume returned ids %v, want [%d]", fids, total-1)
	}
	cids, _ := sseFrames(t, ts, fmt.Sprintf("/campaigns/%s/results?sse=1&from=%d", v.ID, total+100), "")
	if len(cids) != 0 {
		t.Fatalf("offset past the end returned %v, want nothing", cids)
	}

	// JSONL honors ?from too.
	resp, err := http.Get(ts.URL + fmt.Sprintf("/campaigns/%s/results?from=%d", v.ID, total-1))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
	}
	if lines != 1 {
		t.Errorf("JSONL ?from=%d returned %d lines, want 1", total-1, lines)
	}
	if code, _ := get(t, ts, "/campaigns/"+v.ID+"/results?from=-1"); code != http.StatusBadRequest {
		t.Errorf("negative from: %d, want 400", code)
	}
}

// sseFrames reads an SSE stream to completion, returning the event ids
// and data payloads in order.
func sseFrames(t *testing.T, ts *httptest.Server, path, lastEventID string) ([]int, []string) {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ids []int
	var datas []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	id := -1
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &id)
		case strings.HasPrefix(line, "data: "):
			ids = append(ids, id)
			datas = append(datas, strings.TrimPrefix(line, "data: "))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return ids, datas
}

// TestServeHeartbeat: an idle subscriber (campaign parked behind the
// active-campaign semaphore) receives heartbeats instead of silence, on
// both framings.
func TestServeHeartbeat(t *testing.T) {
	srv, ts := testServer(t)
	srv.heartbeat = 10 * time.Millisecond
	// Occupy every active slot so the campaign stays queued and its
	// stream stays idle.
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}
	v := submit(t, ts, `{"exps":["t3"],"insts":15000,"workloads":["go","li"]}`)

	resp, err := http.Get(ts.URL + "/campaigns/" + v.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	beats := 0
	for sc.Scan() && beats < 2 {
		if strings.Contains(sc.Text(), `"event":"heartbeat"`) {
			beats++
		}
	}
	resp.Body.Close()
	if beats < 2 {
		t.Errorf("idle JSONL stream produced %d heartbeats, want >= 2", beats)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/campaigns/"+v.ID+"/results?sse=1", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc = bufio.NewScanner(resp2.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	comments := 0
	for sc.Scan() && comments < 2 {
		if strings.HasPrefix(sc.Text(), ": heartbeat") {
			comments++
		}
	}
	resp2.Body.Close()
	if comments < 2 {
		t.Errorf("idle SSE stream produced %d heartbeat comments, want >= 2", comments)
	}

	// Release the slots and let the campaign finish cleanly.
	<-srv.sem
	<-srv.sem
	waitTerminal(t, ts, v.ID)
}

// TestReadyzLifecycle: /readyz answers 503 until recovery runs, then
// reports the queue's durability mode.
func TestReadyzLifecycle(t *testing.T) {
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := newServer(context.Background(), st, nil, 1, 1)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	code, _ := get(t, ts, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("readyz before recovery: %d, want 503", code)
	}
	srv.recover()
	code, body := get(t, ts, "/readyz")
	if code != http.StatusOK || !strings.Contains(body, `"durable": false`) {
		t.Errorf("readyz after recovery: %d, %s", code, body)
	}
}
