package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"retstack"
	"retstack/internal/resultstore"
)

func testServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	st.SetTool("rasserve")
	srv := newServer(context.Background(), st, nil, 2, 2)
	srv.ready.Store(true)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// submit posts a campaign spec and returns the accepted view.
func submit(t *testing.T, ts *httptest.Server, spec string) view {
	t.Helper()
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	var v view
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// stream reads the JSONL results stream to completion and returns the
// decoded events. The stream only ends once the campaign is terminal, so
// this doubles as the wait-for-done primitive.
func stream(t *testing.T, ts *httptest.Server, id string) []map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content-type = %q", ct)
	}
	var events []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func count(events []map[string]any, typ string) int {
	n := 0
	for _, ev := range events {
		if ev["event"] == typ {
			n++
		}
	}
	return n
}

func last(t *testing.T, events []map[string]any, typ string) map[string]any {
	t.Helper()
	for i := len(events) - 1; i >= 0; i-- {
		if events[i]["event"] == typ {
			return events[i]
		}
	}
	t.Fatalf("no %s event in %d events", typ, len(events))
	return nil
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestServeEndToEnd is the issue's acceptance path: submit a campaign over
// HTTP, stream its per-cell events and result tables, resubmit the same
// campaign, and observe an all-hit run — zero simulations, every cell
// answered from the store with a provenance stamp — whose tables are
// identical to the first.
func TestServeEndToEnd(t *testing.T) {
	_, ts := testServer(t)
	const spec = `{"exps":["t3"],"insts":20000,"workloads":["go","li"]}`

	cold := submit(t, ts, spec)
	if cold.Status != "queued" && cold.Status != "running" && cold.Status != "completed" {
		t.Fatalf("accepted status = %q", cold.Status)
	}
	if cold.ConfigHash == "" || cold.Scope == "" {
		t.Fatalf("accepted view missing identity: %+v", cold)
	}

	events := stream(t, ts, cold.ID)
	done := last(t, events, "campaign_done")
	if done["status"] != "completed" {
		t.Fatalf("cold campaign ended %v", done)
	}
	if n := count(events, "cell_done"); n != 8 {
		t.Errorf("cold run executed %d cells, want 8", n)
	}
	if n := count(events, "cell_cached"); n != 0 {
		t.Errorf("cold run reported %d cached cells, want 0", n)
	}
	result := last(t, events, "result")
	table, _ := result["table"].(string)
	if !strings.Contains(table, "Table 3") {
		t.Errorf("result event carries no Table 3 rendering: %q", table)
	}

	warm := submit(t, ts, spec)
	wevents := stream(t, ts, warm.ID)
	wdone := last(t, wevents, "campaign_done")
	if wdone["status"] != "completed" {
		t.Fatalf("warm campaign ended %v", wdone)
	}
	if n := count(wevents, "cell_done"); n != 0 {
		t.Errorf("warm run executed %d cells, want 0 (all-hit)", n)
	}
	if n := count(wevents, "cell_cached"); n != 8 {
		t.Errorf("warm run reported %d cached cells, want 8", n)
	}
	if hits, _ := wdone["hits"].(float64); hits != 8 {
		t.Errorf("warm campaign_done hits = %v, want 8", wdone["hits"])
	}
	if ex, _ := wdone["executed"].(float64); ex != 0 {
		t.Errorf("warm campaign_done executed = %v, want 0", wdone["executed"])
	}
	for _, ev := range wevents {
		if ev["event"] != "cell_cached" {
			continue
		}
		prov, ok := ev["prov"].(map[string]any)
		if !ok {
			t.Fatalf("cell_cached without provenance stamp: %v", ev)
		}
		if prov["tool"] != "rasserve" || prov["time"] == "" {
			t.Errorf("provenance stamp = %v, want tool=rasserve with a timestamp", prov)
		}
	}

	// Identical campaigns must share one identity and render one output.
	if warm.ConfigHash != cold.ConfigHash || warm.Scope != cold.Scope {
		t.Errorf("resubmit changed identity: %+v vs %+v", warm, cold)
	}
	_, coldTables := get(t, ts, "/campaigns/"+cold.ID+"/tables")
	code, warmTables := get(t, ts, "/campaigns/"+warm.ID+"/tables")
	if code != http.StatusOK {
		t.Fatalf("warm tables: %d", code)
	}
	if coldTables != warmTables {
		t.Errorf("warm tables differ from cold:\n--- cold ---\n%s--- warm ---\n%s", coldTables, warmTables)
	}
	if !strings.Contains(warmTables, "Table 3") {
		t.Errorf("tables endpoint missing Table 3: %q", warmTables)
	}

	// The shared registry exposes the store counters over /metrics.
	_, metrics := get(t, ts, "/metrics")
	if !strings.Contains(metrics, "retstack_store_hits_total 8") {
		t.Errorf("metrics missing store hit count:\n%s", metrics)
	}
	if !strings.Contains(metrics, "retstack_store_puts_total 8") {
		t.Errorf("metrics missing store put count:\n%s", metrics)
	}
}

// TestServeConcurrentCampaigns: two identical campaigns submitted back to
// back on one server simulate each cell once between them. The store
// holds 8 records, the campaigns' executed counts sum to 8, each campaign
// accounts for all 8 cells as hits, shared or executed, and both render
// the same tables.
func TestServeConcurrentCampaigns(t *testing.T) {
	srv, ts := testServer(t)
	const spec = `{"exps":["t3"],"insts":15000,"workloads":["go","li"]}`
	a, b := submit(t, ts, spec), submit(t, ts, spec)
	executed := 0.0
	for _, v := range []view{a, b} {
		done := last(t, stream(t, ts, v.ID), "campaign_done")
		if done["status"] != "completed" {
			t.Fatalf("campaign %s ended %v", v.ID, done)
		}
		hits, _ := done["hits"].(float64)
		shared, _ := done["shared"].(float64)
		ex, _ := done["executed"].(float64)
		if hits+shared+ex != 8 {
			t.Errorf("campaign %s: hits %v + shared %v + executed %v, want 8 cells", v.ID, hits, shared, ex)
		}
		executed += ex
	}
	if executed != 8 {
		t.Errorf("the campaigns executed %v cells between them, want 8", executed)
	}
	if puts := srv.store.Stats().Puts; puts != 8 {
		t.Errorf("store holds %d puts, want 8", puts)
	}
	_, at := get(t, ts, "/campaigns/"+a.ID+"/tables")
	_, bt := get(t, ts, "/campaigns/"+b.ID+"/tables")
	if at != bt || !strings.Contains(at, "Table 3") {
		t.Errorf("tables differ:\n--- %s ---\n%s--- %s ---\n%s", a.ID, at, b.ID, bt)
	}
}

// TestServeStatusAndList: the campaign surfaces through /campaigns and
// /campaigns/{id} with its counters.
func TestServeStatusAndList(t *testing.T) {
	_, ts := testServer(t)
	v := submit(t, ts, `{"exps":["t3"],"insts":15000,"workloads":["go","li"]}`)
	stream(t, ts, v.ID) // wait for completion

	code, body := get(t, ts, "/campaigns/"+v.ID)
	if code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	var got view
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != "completed" || got.Executed != 8 {
		t.Errorf("status view = %+v, want completed with 8 executed", got)
	}
	code, body = get(t, ts, "/campaigns")
	if code != http.StatusOK || !strings.Contains(body, v.ID) {
		t.Errorf("list: %d, %s", code, body)
	}
}

// TestServeSSE: the same stream framed as server-sent events.
func TestServeSSE(t *testing.T) {
	_, ts := testServer(t)
	v := submit(t, ts, `{"exps":["t3"],"insts":15000,"workloads":["go","li"]}`)
	resp, err := http.Get(ts.URL + "/campaigns/" + v.ID + "/results?sse=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("sse content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte("data: {")) {
		t.Errorf("no SSE data frames in %q", body)
	}
	if !bytes.Contains(body, []byte(`"event":"campaign_done"`)) {
		t.Errorf("SSE stream ended without campaign_done")
	}
}

// TestServeValidation: malformed submissions are rejected up front.
func TestServeValidation(t *testing.T) {
	_, ts := testServer(t)
	for _, tc := range []struct {
		name, spec string
	}{
		{"empty", `{}`},
		{"unknown experiment", `{"exps":["t9"]}`},
		{"unknown workload", `{"exps":["t3"],"workloads":["quake"]}`},
		{"repeated workload", `{"exps":["t3"],"workloads":["go","go"]}`},
		{"repeated experiment", `{"exps":["t3","f1","t3"]}`},
		{"unknown field", `{"exps":["t3"],"cores":64}`},
		{"not json", `exps=t3`},
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
	if code, _ := get(t, ts, "/campaigns/c999"); code != http.StatusNotFound {
		t.Errorf("unknown campaign: %d, want 404", code)
	}
	if code, body := get(t, ts, "/experiments"); code != http.StatusOK || !strings.Contains(body, "t3") {
		t.Errorf("experiments: %d, %s", code, body)
	}
	if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Errorf("healthz: %d", code)
	}
}

// TestServeAllExpandsAndShares: "all" expands to every experiment, and a
// narrower campaign submitted first warms the cells the wide one reuses —
// the scope hash deliberately excludes the experiment list.
func TestServeAllExpandsAndShares(t *testing.T) {
	srv, ts := testServer(t)
	a := submit(t, ts, `{"exps":["t3"],"insts":15000,"workloads":["go","li"]}`)
	stream(t, ts, a.ID)
	puts := srv.store.Stats().Puts
	if puts != 8 {
		t.Fatalf("narrow campaign persisted %d cells, want 8", puts)
	}

	b := submit(t, ts, `{"exps":["t3","t4"],"insts":15000,"workloads":["go","li"]}`)
	events := stream(t, ts, b.ID)
	if a.Scope != b.Scope {
		t.Fatalf("scopes differ for same parameters: %s vs %s", a.Scope, b.Scope)
	}
	hits := 0
	for _, ev := range events {
		if ev["event"] == "cell_cached" {
			if exp, _ := ev["exp"].(string); exp == "t3" {
				hits++
			}
		}
	}
	if hits != 8 {
		t.Errorf("wide campaign reused %d t3 cells from the narrow one, want 8", hits)
	}

	all, err := normalize(campaignSpec{Exps: []string{"all"}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(all.Exps), len(retstack.ExperimentIDs()); got != want || want < 2 {
		t.Errorf(`"all" expanded to %d experiments, want %d`, got, want)
	}
	if all.Insts == 0 {
		t.Error("normalize left the default instruction budget unset")
	}
}
