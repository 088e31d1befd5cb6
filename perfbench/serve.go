package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"retstack/internal/campaignlog"
	"retstack/internal/experiments"
	"retstack/internal/resultstore"
	"retstack/internal/workloads"
)

// The serving probe measures the layers the sweep workloads never reach
// (HTTP, resultstore, campaignlog) in their traced runs: a rasserve child
// with fresh directories, an untimed first life, a clean SIGTERM restart
// that replays the store and campaign log, and a short timed window of
// closed-loop clients.
//
// Its request universe: every small spec of one experiment on a
// pair of SPEC clones at one of two budgets. Popularity is Zipf over a
// seeded ranking, so a few specs repeat often (served from the store) and
// a long tail is simulated on first sight.
var (
	serveExps    = []string{"t3", "t4", "f3", "a2"}
	serveBudgets = []uint64{4_000, 8_000}
)

const (
	serveClients  = 2  // closed-loop clients, one connection each
	serveParallel = 2  // rasserve -parallel
	servePrefix   = 20 // campaigns the untimed first server life runs
	serveWindow   = 2 * time.Second
	zipfS         = 1.1
)

// campaignSpec is the POST /campaigns body the clients send.
type campaignSpec struct {
	Exps      []string `json:"exps"`
	Insts     uint64   `json:"insts"`
	Workloads []string `json:"workloads"`
}

// universe lists the spec universe: classes (one per experiment and
// budget) of every SPEC clone pair, in a fixed order.
func universe() []campaignSpec {
	var specs []campaignSpec
	for _, exp := range serveExps {
		for _, b := range serveBudgets {
			for _, pair := range pairs() {
				specs = append(specs, campaignSpec{Exps: []string{exp}, Insts: b, Workloads: pair})
			}
		}
	}
	return specs
}

func pairs() [][]string {
	names := workloads.SPECNames()
	var ps [][]string
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			ps = append(ps, []string{names[i], names[j]})
		}
	}
	return ps
}

// specSequence is the seeded request sequence: indices into the universe,
// drawn Zipf-popular over a ranking that deals the classes round-robin
// (rank r belongs to class r mod classes) and orders the pairs within each
// class by a seeded permutation. Every seed thus gives the popular head the
// same mix of experiments and budgets, and differs in which workload pairs
// are popular.
type specSequence struct {
	rank []int
	zipf *rand.Zipf
}

func newSpecSequence(seed int64) *specSequence {
	rng := rand.New(rand.NewSource(seed))
	classes, per := len(serveExps)*len(serveBudgets), len(pairs())
	perms := make([][]int, classes)
	for c := range perms {
		perms[c] = rng.Perm(per)
	}
	rank := make([]int, classes*per)
	for r := range rank {
		c := r % classes
		rank[r] = c*per + perms[c][r/classes]
	}
	return &specSequence{rank: rank, zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(rank)-1))}
}

func (s *specSequence) next() int { return s.rank[s.zipf.Uint64()] }

// child is one running rasserve process.
type child struct {
	cmd    *exec.Cmd
	addr   string
	mu     sync.Mutex
	stderr bytes.Buffer
	eof    chan struct{} // closed once stderr reaches EOF
	done   bool
}

// spawn starts rasserve on a kernel-chosen loopback port with the given
// directories, reads its address from the "listening on" stderr line, and
// waits for /readyz. It returns the child and the spawn-to-ready time.
func spawn(ctx context.Context, bin, store, queue string) (*child, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store", store, "-queue", queue,
		"-parallel", strconv.Itoa(serveParallel))
	// The child must not outlive the benchmark, even one killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start rasserve: %w", err)
	}
	c := &child{cmd: cmd, eof: make(chan struct{})}
	addr := make(chan string, 1) // the reader must never block on it
	go func() {
		defer close(c.eof)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.stderr.WriteString(line + "\n")
			c.mu.Unlock()
			if _, a, ok := strings.Cut(line, "listening on http://"); ok {
				select {
				case addr <- strings.TrimSpace(a):
				default:
				}
			}
		}
	}()
	select {
	case c.addr = <-addr:
	case <-c.eof:
		c.kill()
		return nil, 0, fmt.Errorf("rasserve exited before listening: %s", c.log())
	case <-time.After(20 * time.Second):
		c.kill()
		return nil, 0, errors.New("rasserve did not report its address within 20s")
	case <-ctx.Done():
		c.kill()
		return nil, 0, ctx.Err()
	}
	for {
		resp, err := http.Get("http://" + c.addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 20*time.Second || ctx.Err() != nil {
			c.kill()
			return nil, 0, fmt.Errorf("rasserve not ready within 20s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *child) log() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.TrimSpace(c.stderr.String())
}

// stop sends SIGTERM and requires a clean exit (status 0) within 30s; past
// that the child is killed and stop fails.
func (c *child) stop() error {
	if c.done {
		return nil
	}
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.kill()
		return fmt.Errorf("signal rasserve: %w", err)
	}
	select {
	case <-c.eof:
	case <-time.After(30 * time.Second):
		c.kill()
		return errors.New("rasserve did not exit within 30s of SIGTERM")
	}
	c.done = true
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("rasserve shutdown: %v: %s", err, c.log())
	}
	return nil
}

// kill ends the child unconditionally and waits for it (error paths).
func (c *child) kill() {
	if c.done {
		return
	}
	c.done = true
	c.cmd.Process.Kill() //nolint:errcheck // it may already have exited
	<-c.eof
	c.cmd.Wait() //nolint:errcheck // killed on purpose
}

// campaignRec is one campaign as a client saw it.
type campaignRec struct {
	spec                   int
	latency                time.Duration // submit -> tables received
	submit, stream, tables time.Duration
	status                 string
	executed, cells        int
	serverWall             float64 // status wall_seconds
	tableHash              string
	httpErr                bool
}

// driveClients runs serveClients closed-loop clients against addr: each
// takes the next spec from seq, submits it, waits on the result stream for
// campaign_done, then fetches the tables. It stops taking specs after n
// campaigns (n > 0) or once d has elapsed, and returns every campaign in
// completion order.
func driveClients(ctx context.Context, addr string, seq *specSequence, specs []campaignSpec, n int, d time.Duration) []campaignRec {
	var (
		mu    sync.Mutex
		taken int
		recs  []campaignRec
		wg    sync.WaitGroup
	)
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if ctx.Err() != nil || (n > 0 && taken >= n) || (n == 0 && time.Since(start) >= d) {
			return 0, false
		}
		taken++
		return seq.next(), true
	}
	for i := 0; i < serveClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: 60 * time.Second}
			defer client.CloseIdleConnections()
			for {
				idx, ok := take()
				if !ok {
					return
				}
				rec := runCampaign(ctx, client, addr, specs[idx])
				rec.spec = idx
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs
}

// runCampaign submits one spec and follows it to its tables. Any transport
// error or non-2xx response marks the record httpErr.
func runCampaign(ctx context.Context, client *http.Client, addr string, spec campaignSpec) campaignRec {
	var rec campaignRec
	base := "http://" + addr
	body, _ := json.Marshal(spec) // plain struct of strings and ints
	t0 := time.Now()
	var view struct {
		ID string `json:"id"`
	}
	if err := httpDo(ctx, client, http.MethodPost, base+"/campaigns", body, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&view)
	}); err != nil {
		logf("submit: %v", err)
		rec.httpErr = true
		return rec
	}
	t1 := time.Now()
	err := httpDo(ctx, client, http.MethodGet, base+"/campaigns/"+view.ID+"/results", nil, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64<<10), 16<<20) // result events carry whole tables
		for sc.Scan() {
			var ev struct {
				Event    string  `json:"event"`
				Status   string  `json:"status"`
				Hits     int     `json:"hits"`
				Shared   int     `json:"shared"`
				Executed int     `json:"executed"`
				Wall     float64 `json:"wall_seconds"`
			}
			if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Event == "campaign_done" {
				rec.status, rec.executed, rec.serverWall = ev.Status, ev.Executed, ev.Wall
				rec.cells = ev.Hits + ev.Shared + ev.Executed
			}
		}
		return sc.Err()
	})
	if err != nil {
		logf("results %s: %v", view.ID, err)
		rec.httpErr = true
		return rec
	}
	t2 := time.Now()
	err = httpDo(ctx, client, http.MethodGet, base+"/campaigns/"+view.ID+"/tables", nil, func(r io.Reader) error {
		h := sha256.New()
		if _, err := io.Copy(h, r); err != nil {
			return err
		}
		rec.tableHash = hex.EncodeToString(h.Sum(nil))
		return nil
	})
	t3 := time.Now()
	if err != nil {
		logf("tables %s: %v", view.ID, err)
		rec.httpErr = true
		return rec
	}
	rec.submit, rec.stream, rec.tables, rec.latency = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	return rec
}

func httpDo(ctx context.Context, client *http.Client, method, url string, body []byte, read func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(msg)))
	}
	return read(resp.Body)
}

// serveResult is what the harness measured.
type serveResult struct {
	prefix   []campaignRec      // first life
	timed    []campaignRec      // measured window
	prom     map[string]float64 // the second life's /metrics at the end of the window
	storeDir string
	queueDir string
}

// runServe runs the serve harness in dir: fresh store and queue
// directories, an untimed first server life over a prefix of the seeded
// sequence, a clean SIGTERM shutdown, a restart that replays the store and
// campaign log, and the timed closed-loop window against it. Every child
// is stopped before runServe returns; a child that fails to exit cleanly
// fails the run. The caller removes dir.
func runServe(ctx context.Context, o opts, dir string) (*serveResult, error) {
	r := &serveResult{storeDir: filepath.Join(dir, "store"), queueDir: filepath.Join(dir, "queue")}
	specs := universe()
	seq := newSpecSequence(o.seed)

	first, _, err := spawn(ctx, o.rasserve, r.storeDir, r.queueDir)
	if err != nil {
		return nil, err
	}
	r.prefix = driveClients(ctx, first.addr, seq, specs, servePrefix, 0)
	if err := first.stop(); err != nil {
		return nil, err
	}
	srv, _, err := spawn(ctx, o.rasserve, r.storeDir, r.queueDir)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	r.timed = driveClients(ctx, srv.addr, seq, specs, 0, serveWindow)
	r.prom, err = scrape(ctx, srv.addr)
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	return r, ctx.Err()
}

// scrape reads the server's /metrics, summing each family over labels.
func scrape(ctx context.Context, addr string) (map[string]float64, error) {
	m := map[string]float64{}
	err := httpDo(ctx, http.DefaultClient, http.MethodGet, "http://"+addr+"/metrics", nil, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			name, val, ok := strings.Cut(line, " ")
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name, val, ok = line[:i], line[strings.LastIndexByte(line, '}')+2:], true
			}
			if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); ok && err == nil {
				m[name] += v
			}
		}
		return sc.Err()
	})
	return m, err
}

// references renders, in process, the tables every served spec must match:
// experiments.Run for each experiment of the spec, concatenated in id
// order as GET /campaigns/{id}/tables serves them.
func references(ctx context.Context, specs []campaignSpec, used map[int]bool) (map[int]string, error) {
	idx := make([]int, 0, len(used))
	for i := range used {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	refs := map[int]string{}
	for _, i := range idx {
		s := specs[i]
		exps := append([]string(nil), s.Exps...)
		sort.Strings(exps)
		h := sha256.New()
		for _, id := range exps {
			p := experiments.Params{InstBudget: s.Insts, Workloads: s.Workloads, Parallel: sweepWorkers, Ctx: ctx}
			res, err := experiments.Run(id, p)
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", id, err)
			}
			h.Write([]byte(res.String()))
		}
		refs[i] = hex.EncodeToString(h.Sum(nil))
	}
	return refs, nil
}

// check counts the campaigns that failed: transport errors, non-2xx
// responses, a status other than completed, or tables that differ from
// the in-process reference.
func check(recs []campaignRec, refs map[int]string) (failed, httpErrs int) {
	for _, c := range recs {
		switch {
		case c.httpErr:
			failed++
			httpErrs++
		case c.status != "completed" || c.tableHash != refs[c.spec]:
			failed++
		}
	}
	return failed, httpErrs
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// serveProbe runs the serve harness and sets the serving layers' metrics
// on out, adding its campaigns to out's attempted and failed counts.
func serveProbe(ctx context.Context, o opts, out *outcome) error {
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.scratch, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r, err := runServe(ctx, o, dir)
	if err != nil {
		return fmt.Errorf("serving probe: %w", err)
	}
	used := map[int]bool{}
	all := append(append([]campaignRec(nil), r.prefix...), r.timed...)
	for _, c := range all {
		used[c.spec] = true
	}
	refs, err := references(ctx, universe(), used)
	if err != nil {
		return err
	}
	failed, httpErrs := check(all, refs)
	out.Attempted += len(all)
	out.Failed += failed

	var lat, warm, cold, submit, stream, tables, wall, queue []float64
	for _, c := range r.timed {
		if c.httpErr {
			continue
		}
		l := ms(c.latency)
		lat = append(lat, l)
		if c.executed == 0 {
			warm = append(warm, l)
		} else {
			cold = append(cold, l)
		}
		submit, stream, tables = append(submit, ms(c.submit)), append(stream, ms(c.stream)), append(tables, ms(c.tables))
		wall = append(wall, 1000*c.serverWall)
		queue = append(queue, l-1000*c.serverWall)
	}
	if len(lat) == 0 {
		return errors.New("serving probe: no campaign completed in the timed window")
	}
	tv, tp, _ := tail(lat)
	out.set("campaign_samples", float64(len(lat)))
	out.set("campaign_tail_ms", tv)
	out.set("campaign_tail_pct", tp)
	out.set("warm_campaign_p50_ms", median(warm))
	out.set("cold_campaign_p50_ms", median(cold))
	out.set("warm_campaigns", float64(len(warm)))
	out.set("cold_campaigns", float64(len(cold)))
	out.set("failed_frac", ratio(float64(failed), float64(len(all))))
	out.set("http.submit_ms_p50", median(submit))
	out.set("http.stream_ms_p50", median(stream))
	out.set("http.tables_ms_p50", median(tables))
	out.set("http.errors", float64(httpErrs))
	out.set("rasserve.server_wall_ms_p50", median(wall))
	out.set("rasserve.queue_http_ms_p50", median(queue))

	p := r.prom
	gets := p["retstack_store_hits_total"] + p["retstack_store_misses_total"]
	out.set("resultstore.gets", gets)
	out.set("resultstore.get_s", p["retstack_store_get_seconds_sum"])
	out.set("resultstore.puts", p["retstack_store_puts_total"])
	out.set("resultstore.put_s", p["retstack_store_put_seconds_sum"])
	out.set("resultstore.hit_ratio", ratio(p["retstack_store_hits_total"], gets))
	out.set("resultstore.shared", p["retstack_store_shared_total"])
	out.set("resultstore.bytes", dirBytes(r.storeDir))
	out.set("campaignlog.bytes", dirBytes(r.queueDir))
	return openLayers(r, out)
}

// openLayers times resultstore.Open and campaignlog.Open on the
// directories the server left behind (median of three opens each) and
// reads the campaign log's replay counts.
func openLayers(r *serveResult, out *outcome) error {
	var storeOpen, logOpen []float64
	var records, campaigns int
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		st, err := resultstore.Open(r.storeDir)
		storeOpen = append(storeOpen, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		if err := st.Close(); err != nil {
			return err
		}
		t1 := time.Now()
		lg, err := campaignlog.Open(r.queueDir)
		logOpen = append(logOpen, time.Since(t1).Seconds())
		if err != nil {
			return err
		}
		records, campaigns = int(lg.Stats().Records), len(lg.Campaigns())
		if err := lg.Close(); err != nil {
			return err
		}
	}
	out.set("resultstore.open_s", median(storeOpen))
	out.set("campaignlog.open_s", median(logOpen))
	out.set("campaignlog.records", float64(records))
	out.set("campaignlog.records_per_campaign", ratio(float64(records), float64(campaigns)))
	return nil
}

func dirBytes(dir string) float64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error { //nolint:errcheck // best-effort size
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return float64(n)
}
