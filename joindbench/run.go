package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/store"
)

// requestTimeout bounds one HTTP op; an op that hits it is a failure.
const requestTimeout = 30 * time.Second

// env is one set-up service: joind's handler behind httptest, with the
// workload's databases registered and its caches warm.
type env struct {
	w       *workloadDef
	dbs     []genDB
	svc     *service.Service
	srv     *httptest.Server
	client  *http.Client
	dir     string
	batches []store.Batch
	// registerMS is each POST /v1/databases round trip.
	registerMS []float64
}

// queryResp is the part of joind's /v1/query response the benchmark reads.
type queryResp struct {
	Strategy        string             `json:"strategy"`
	Cost            int64              `json:"cost"`
	Produced        int64              `json:"produced"`
	ResultCount     int                `json:"result_count"`
	CacheHit        bool               `json:"cache_hit"`
	QueueWaitMS     float64            `json:"queue_wait_ms"`
	Result          *relation.Relation `json:"result"`
	ResultTruncated bool               `json:"result_truncated"`
}

type ingestResp struct {
	PlansInvalidated int `json:"plans_invalidated"`
}

func viewID(db string) string { return "v_" + db }

// setup builds a service for w from seed. Everything it does counts as
// set-up time: generating data, opening the store, registering databases
// and the view over HTTP, and one warm-up query per (database, strategy).
// Warm-up answers are checked against or.
func setup(w *workloadDef, seed int64, workdir string, seconds float64, tracer bool, or map[string]*oracle) (*env, float64, error) {
	t0 := time.Now()
	dbs, err := w.generate(seed)
	if err != nil {
		return nil, 0, err
	}
	cfg := service.Config{}
	if w.Sharded {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if tracer {
		cfg.Tracer = obs.NewCollector(0)
	}
	e := &env{w: w, dbs: dbs, svc: service.New(cfg)}
	if w.IngestRate > 0 {
		if e.dir, err = os.MkdirTemp(workdir, "store-"); err != nil {
			return nil, 0, err
		}
		policy, err := store.ParseFsyncPolicy(w.Fsync)
		if err != nil {
			e.close()
			return nil, 0, err
		}
		st, err := store.Open(e.dir, store.Options{Fsync: policy})
		if err != nil {
			e.close()
			return nil, 0, err
		}
		if err := e.svc.AttachStore(st); err != nil {
			_ = st.Close()
			e.close()
			return nil, 0, err
		}
	}
	e.srv = httptest.NewServer(e.svc.Handler())
	e.client = &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8},
	}
	for _, g := range dbs {
		start := time.Now()
		if _, err := e.post("/v1/databases", map[string]any{"name": g.name, "relations": g.db}, nil); err != nil {
			e.close()
			return nil, 0, fmt.Errorf("register %s: %w", g.name, err)
		}
		e.registerMS = append(e.registerMS, msSince(start))
	}
	if w.IngestDB != "" {
		if _, err := e.post("/v1/views", map[string]any{"id": viewID(w.IngestDB), "database": w.IngestDB}, nil); err != nil {
			e.close()
			return nil, 0, fmt.Errorf("register view: %w", err)
		}
		g := e.db(w.IngestDB)
		e.batches = ingestStream(seed, g.db, int(math.Ceil(w.IngestRate*seconds))+1, w.Inserts, w.Deletes)
	}
	for i, g := range dbs {
		for _, s := range w.Strategies {
			resp, _, err := e.query(op{DB: i, Strategy: s.Name})
			if err != nil {
				e.close()
				return nil, 0, fmt.Errorf("warm-up %s/%s: %w", g.name, s.Name, err)
			}
			if or != nil {
				if why := or[g.name].check(resp, s.Name, w.ResultCap); why != "" {
					e.close()
					return nil, 0, fmt.Errorf("warm-up %s/%s: wrong answer: %s", g.name, s.Name, why)
				}
			}
		}
	}
	return e, time.Since(t0).Seconds(), nil
}

func (e *env) db(name string) genDB {
	for _, g := range e.dbs {
		if g.name == name {
			return g
		}
	}
	return genDB{}
}

// close stops the server, drains the service (which closes the store) and
// removes the store directory.
func (e *env) close() {
	if e.srv != nil {
		e.srv.Close()
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.svc.Close(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "joindbench: close service:", err)
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// post sends a JSON body and decodes a 2xx JSON response into out (when
// non-nil). It returns the response body size.
func (e *env) post(path string, body any, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := e.client.Post(e.srv.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return len(data), fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return len(data), fmt.Errorf("%s: decode: %w", path, err)
		}
	}
	return len(data), nil
}

func (e *env) get(path string) ([]byte, error) {
	resp, err := e.client.Get(e.srv.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	return data, nil
}

func (e *env) query(o op) (queryResp, int, error) {
	body := map[string]any{"database": e.dbs[o.DB].name}
	if o.Strategy != "default" {
		body["strategy"] = o.Strategy
	}
	if e.w.ResultCap > 0 {
		body["include_result"] = true
		body["max_result_tuples"] = e.w.ResultCap
	}
	var resp queryResp
	n, err := e.post("/v1/query", body, &resp)
	return resp, n, err
}

// sample is one query op of the timed window.
type sample struct {
	op      op
	doneAt  time.Duration // completion, relative to the window start
	latMS   float64       // +Inf when the op failed
	failure string
	resp    queryResp
	bytes   int
	// lateMS is how long after the client's previous answer (or the window
	// start) this query was sent: the closed-loop generator's own delay.
	lateMS float64
	// loV and hiV bracket the statistics version the query ran at: the
	// batches acknowledged before it was sent and the batches sent before
	// its answer arrived. The version is known when they are equal.
	loV, hiV int64
}

type ingestSample struct {
	latMS, lateMS float64
	failure       string
	resp          ingestResp
}

// httpRun is the outcome of one timed window.
type httpRun struct {
	window                      time.Duration
	queries                     []sample
	ingests                     []ingestSample
	heapMB, heapPeakMB, inuseMB float64
	// endFailures lists wrong answers of the end-state checks after the
	// window; extraOps counts those checks' ops.
	endFailures []string
	extraOps    int
}

// run drives the timed window: w.Clients closed-loop query clients and, for
// writing workloads, the open-loop ingest feed. Answers are checked as they
// arrive; answers at versions the oracle did not see are cross-checked
// after the window.
func (e *env) run(seed int64, seconds float64, or map[string]*oracle) *httpRun {
	res := &httpRun{window: time.Duration(seconds * float64(time.Second))}
	var sent, acked atomic.Int64
	start := time.Now()
	deadline := start.Add(res.window)

	// The heap sampler reads the runtime's live-heap size (the bytes the
	// last GC cycle marked live) every 10ms. The reported figure is the
	// median sample: peaks, of HeapInuse or of the live heap, depend on
	// whether GC cycles land while two large queries overlap and varied
	// 1.2-2x between identical runs.
	stopHeap := make(chan struct{})
	var heapWG sync.WaitGroup
	var heapSamples []float64
	var inusePeak uint64
	heapWG.Add(1)
	go func() {
		defer heapWG.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var ms runtime.MemStats
		for {
			metrics.Read(live)
			heapSamples = append(heapSamples, float64(live[0].Value.Uint64())/(1<<20))
			runtime.ReadMemStats(&ms)
			inusePeak = max(inusePeak, ms.HeapInuse)
			select {
			case <-stopHeap:
				return
			case <-tick.C:
			}
		}
	}()

	var wg sync.WaitGroup
	perClient := make([][]sample, e.w.Clients)
	for c := 0; c < e.w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			src := e.w.opSource(seed, c)
			prev := start
			for time.Now().Before(deadline) {
				o := src.next()
				s := sample{op: o, loV: acked.Load()}
				t0 := time.Now()
				s.lateMS = float64(t0.Sub(prev)) / float64(time.Millisecond)
				resp, n, err := e.query(o)
				s.latMS = msSince(t0)
				s.doneAt = time.Since(start)
				s.hiV = sent.Load()
				s.bytes = n
				switch {
				case err != nil:
					s.failure = err.Error()
				case s.hiV == 0 || e.w.IngestRate == 0:
					s.failure = or[e.dbs[o.DB].name].check(resp, o.Strategy, e.w.ResultCap)
				}
				if s.failure != "" {
					s.latMS = math.Inf(1)
				}
				resp.Result = nil
				s.resp = resp
				perClient[c] = append(perClient[c], s)
				prev = time.Now()
			}
		}(c)
	}
	if e.w.IngestRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, b := range e.batches {
				due := start.Add(time.Duration(float64(i) / e.w.IngestRate * float64(time.Second)))
				if !due.Before(deadline) {
					break
				}
				time.Sleep(time.Until(due))
				is := ingestSample{lateMS: float64(time.Since(due)) / float64(time.Millisecond)}
				sent.Store(int64(i + 1))
				_, err := e.post("/v1/ingest", ingestBody(e.w.IngestDB, b), &is.resp)
				is.latMS = float64(time.Since(due)) / float64(time.Millisecond)
				if err != nil {
					is.failure = err.Error()
					is.latMS = math.Inf(1)
				} else {
					acked.Store(int64(i + 1))
				}
				res.ingests = append(res.ingests, is)
			}
		}()
	}
	wg.Wait()
	close(stopHeap)
	heapWG.Wait()
	res.heapMB = median(heapSamples)
	res.heapPeakMB = quantile(heapSamples, 1)
	res.inuseMB = float64(inusePeak) / (1 << 20)
	for _, qs := range perClient {
		res.queries = append(res.queries, qs...)
	}
	if e.w.IngestRate > 0 {
		crossCheckVersions(res.queries)
		res.endFailures = e.endCheck(res)
	}
	return res
}

func ingestBody(db string, b store.Batch) map[string]any {
	muts := make([]map[string]any, len(b))
	for i, m := range b {
		muts[i] = map[string]any{"relation": m.Relation, "inserts": m.Inserts, "deletes": m.Deletes}
	}
	return map[string]any{"database": db, "mutations": muts}
}

// crossCheckVersions checks the ingest workload's answers after version 0,
// which the set-up oracle cannot know: every query whose statistics version
// is known must agree with every other query at that version on the result
// count, and with every query of the same strategy there on the cost. A
// disagreeing query is marked failed.
func crossCheckVersions(qs []sample) {
	type key struct {
		v     int64
		strat string
	}
	counts := make(map[int64]int)
	costs := make(map[key]int64)
	for i := range qs {
		s := &qs[i]
		if s.failure != "" || s.hiV == 0 || s.loV != s.hiV {
			continue
		}
		if c, ok := counts[s.loV]; ok && c != s.resp.ResultCount {
			s.failure = fmt.Sprintf("version %d: result_count %d, other queries %d", s.loV, s.resp.ResultCount, c)
		}
		counts[s.loV] = s.resp.ResultCount
		// A batch's plan-cache invalidation runs after its version bump, so a
		// plan derived at version K can be dropped and derived again at K;
		// hybrid's second derivation sees more q-error feedback and may pick
		// another route, with another cost. The other strategies' plans do
		// not depend on feedback.
		k := key{s.loV, s.op.Strategy}
		if c, ok := costs[k]; ok && c != s.resp.Cost && s.op.Strategy != "hybrid" {
			s.failure = fmt.Sprintf("version %d %s: cost %d, other queries %d", s.loV, s.op.Strategy, s.resp.Cost, c)
		}
		costs[k] = s.resp.Cost
		if s.failure != "" {
			s.latMS = math.Inf(1)
		}
	}
}

// endCheck runs after the ingest window: each strategy's answer over HTTP
// must equal the oracle on the store's current catalog, and the view must
// equal a fresh recompute.
func (e *env) endCheck(res *httpRun) []string {
	var out []string
	name := e.w.IngestDB
	cur, err := e.svc.Store().Current(name)
	if err != nil {
		return []string{fmt.Sprintf("end check: store current: %v", err)}
	}
	or, err := computeOracle(cur, e.w.Strategies, 0)
	if err != nil {
		return []string{fmt.Sprintf("end check: oracle: %v", err)}
	}
	for _, s := range e.w.Strategies {
		res.extraOps++
		body := map[string]any{"database": name, "include_result": true}
		if s.Name != "default" {
			body["strategy"] = s.Name
		}
		var resp queryResp
		if _, err := e.post("/v1/query", body, &resp); err != nil {
			out = append(out, fmt.Sprintf("end check %s: %v", s.Name, err))
			continue
		}
		if why := or.check(resp, s.Name, 0); why != "" {
			out = append(out, fmt.Sprintf("end check %s: %s", s.Name, why))
		} else if resp.Result == nil || !resp.Result.Equal(or.rows) {
			out = append(out, fmt.Sprintf("end check %s: result tuples differ from the oracle", s.Name))
		}
	}
	res.extraOps++
	data, err := e.get("/v1/views/" + viewID(name))
	if err != nil {
		return append(out, fmt.Sprintf("end check view: %v", err))
	}
	var view struct {
		Result *relation.Relation `json:"result"`
	}
	if err := json.Unmarshal(data, &view); err != nil {
		return append(out, fmt.Sprintf("end check view: decode: %v", err))
	}
	fresh, err := recomputeView(cur)
	if err != nil {
		return append(out, fmt.Sprintf("end check view: recompute: %v", err))
	}
	if view.Result == nil || !view.Result.Equal(fresh) {
		out = append(out, "end check view: maintained view differs from a fresh recompute")
	}
	return out
}

// promScrape parses the Prometheus text exposition into sample values keyed
// by the full series name including labels.
func promScrape(text []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// histQuantile estimates quantile q of a Prometheus histogram from its
// cumulative buckets, interpolating linearly inside the bucket.
func histQuantile(series map[string]float64, name string, q float64) float64 {
	type bucket struct{ le, count float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range series {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			le = math.Inf(1)
		}
		bs = append(bs, bucket{le, v})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].count
	if total == 0 {
		return 0
	}
	target := q * total
	prevLE, prevCount := 0.0, 0.0
	for _, b := range bs {
		if b.count >= target {
			if math.IsInf(b.le, 1) {
				return prevLE
			}
			if b.count == prevCount {
				return b.le
			}
			return prevLE + (b.le-prevLE)*(target-prevCount)/(b.count-prevCount)
		}
		prevLE, prevCount = b.le, b.count
	}
	return prevLE
}
