package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (10 samples beyond it)", got)
	}
	if got := quantile(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
}

func TestFailuresMissLatency(t *testing.T) {
	// Half the ops are refused (429), half time out; every one must count
	// as a failure and as an infinite latency.
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%2 == 0 {
			http.Error(w, `{"error":"overloaded","kind":"overloaded"}`, http.StatusTooManyRequests)
			return
		}
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	w := &workloadDef{Name: "test", DBs: []dbGen{{Name: "x", Weight: 1}}, Strategies: []stratShare{{"default", 1}}, Clients: 1}
	e := &env{w: w, dbs: []genDB{{name: "x"}}, srv: srv, client: &http.Client{Timeout: 20 * time.Millisecond}}
	run := e.run(1, 0.5, nil)
	if len(run.queries) == 0 {
		t.Fatal("no ops ran")
	}
	for _, s := range run.queries {
		if s.failure == "" || !math.IsInf(s.latMS, 1) {
			t.Fatalf("op not counted as a failed, missed op: %+v", s)
		}
	}
	// A window of 400 ops, one in five of them refused or timed out and
	// spread evenly over the window: they must surface as an infinite p90
	// in every third, and count in failed and ops_failed_ratio.
	win := &httpRun{window: time.Second}
	for i := 0; i < 400; i++ {
		s := sample{op: op{Strategy: "default"}, latMS: 1, doneAt: time.Duration(i) * time.Second / 400}
		if i%5 == 0 {
			f := run.queries[i%len(run.queries)]
			s.failure, s.latMS = f.failure, f.latMS
		}
		win.queries = append(win.queries, s)
	}
	res, _, err := summarize(w, win, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 80 || res.Attempted != 400 {
		t.Fatalf("correct=%v failed=%d attempted=%d, want false 80 400", res.Correct, res.Failed, res.Attempted)
	}
	if p90 := res.Metrics["query_p90_ms"].Value; !math.IsInf(p90, 1) {
		t.Fatalf("p90 = %v with 20%% of ops failed, want +Inf", p90)
	}
	if p50 := res.Metrics["query_p50_ms"].Value; p50 != 1 {
		t.Fatalf("p50 = %v, want 1", p50)
	}
	if got := res.Metrics["ops_failed_ratio"].Value; got != 0.2 {
		t.Fatalf("ops_failed_ratio = %v, want 0.2", got)
	}
}

func TestBoundComparison(t *testing.T) {
	parent := []float64{100, 101, 99, 100}
	if regressed(parent, []float64{109, 110, 108}, 0.10, "lower") {
		t.Error("9% slower flagged against a 10% bound")
	}
	if !regressed(parent, []float64{112, 111, 113}, 0.10, "lower") {
		t.Error("12% slower not flagged against a 10% bound")
	}
	if !regressed(parent, []float64{88, 87, 89}, 0.10, "higher") {
		t.Error("12% lower throughput not flagged against a 10% bound")
	}
	if regressed(parent, []float64{130, 140}, 0.10, "higher") {
		t.Error("higher throughput flagged as a regression")
	}
	// The run-to-run spread: Python's statistics.quantiles(n=4) over
	// 1..10 is [2.75, 5.5, 8.25].
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := iqrShare(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
}

// streamBytes renders everything the generator feeds the service for seed:
// the databases, each client's first ops and the ingest batches.
func streamBytes(t *testing.T, w *workloadDef, seed int64) []byte {
	t.Helper()
	dbs, err := w.generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, g := range dbs {
		if err := enc.Encode(g.db); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < w.Clients; c++ {
		src := w.opSource(seed, c)
		ops := make([]op, 3*opBlock)
		for i := range ops {
			ops[i] = src.next()
		}
		if err := enc.Encode(ops); err != nil {
			t.Fatal(err)
		}
	}
	if w.IngestRate > 0 {
		if err := enc.Encode(ingestStream(seed, dbs[0].db, 20, w.Inserts, w.Deletes)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// shape summarizes a generated workload without its values: relation
// schemas, op class counts per block and batch sizes.
func shape(t *testing.T, w *workloadDef, seed int64) string {
	t.Helper()
	dbs, err := w.generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	var parts []any
	for _, g := range dbs {
		for _, r := range g.db.Relations() {
			parts = append(parts, r.Schema().Attrs())
		}
	}
	for c := 0; c < w.Clients; c++ {
		src := w.opSource(seed, c)
		counts := make(map[op]int)
		for range src.proto {
			counts[src.next()]++
		}
		keys := make([]string, 0, len(counts))
		for o, n := range counts {
			b, _ := json.Marshal([]any{o, n})
			keys = append(keys, string(b))
		}
		sort.Strings(keys)
		parts = append(parts, keys)
	}
	if w.IngestRate > 0 {
		for _, b := range ingestStream(seed, dbs[0].db, 20, w.Inserts, w.Deletes) {
			parts = append(parts, b.Tuples())
		}
	}
	out, _ := json.Marshal(parts)
	return string(out)
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range workloads() {
		a, b := streamBytes(t, w, 1), streamBytes(t, w, 1)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different op streams", w.Name)
		}
		if bytes.Equal(a, streamBytes(t, w, 2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same op stream", w.Name)
		}
		if s1, s2 := shape(t, w, 1), shape(t, w, 2); s1 != s2 {
			t.Errorf("%s: seeds 1 and 2 differ in shape:\n%s\n%s", w.Name, s1, s2)
		}
	}
}

func TestIngestStreamApplies(t *testing.T) {
	// Every batch deletes present tuples and inserts absent ones, so no
	// mutation is a no-op and every batch changes the database.
	w, err := workloadByName("ingest-mixed")
	if err != nil {
		t.Fatal(err)
	}
	dbs, err := w.generate(3)
	if err != nil {
		t.Fatal(err)
	}
	db := dbs[0].db
	present := make([]map[string]bool, db.Len())
	for i, r := range db.Relations() {
		present[i] = make(map[string]bool)
		for _, tup := range r.Rows() {
			present[i][tup.String()] = true
		}
	}
	for bi, b := range ingestStream(3, db, 50, w.Inserts, w.Deletes) {
		for _, m := range b {
			for _, tup := range m.Deletes {
				if !present[m.Relation][tup.String()] {
					t.Fatalf("batch %d deletes absent %s", bi, tup)
				}
				delete(present[m.Relation], tup.String())
			}
			for _, tup := range m.Inserts {
				if present[m.Relation][tup.String()] {
					t.Fatalf("batch %d inserts present %s", bi, tup)
				}
				present[m.Relation][tup.String()] = true
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, StartNS: 10, EndNS: 30},
		{ID: 2, Parent: 0, StartNS: 20, EndNS: 50}, // overlaps span 1
		{ID: 3, Parent: 0, StartNS: 70, EndNS: 80},
		{ID: 4, Parent: 2, StartNS: 25, EndNS: 35},
	}
	want := []time.Duration{100 - 40 - 10, 20, 30 - 10, 10, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists equal to
// what the command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	for _, m := range spec.EndToEnd {
		got[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, command prints %v", got, endToEnd)
	}
	layers := layerMetrics(newLayerPass(""), &httpRun{}, nil, nil, 0)
	gotLayers := make(map[string]string)
	for _, m := range spec.PerLayer {
		gotLayers[m.Name] = m.Unit
	}
	wantLayers := make(map[string]string)
	for k, m := range layers {
		wantLayers[k] = m.Unit
	}
	if !reflect.DeepEqual(gotLayers, wantLayers) {
		t.Errorf("BENCHMARK.json per_layer %v, command prints %v", gotLayers, wantLayers)
	}
	for k := range wantLayers {
		if layerMap[k] == "" {
			t.Errorf("per-layer metric %s has no entry in layerMap", k)
		}
	}
	if len(layerMap) != len(wantLayers) {
		t.Errorf("layerMap has %d entries for %d per-layer metrics", len(layerMap), len(wantLayers))
	}
	for _, wl := range spec.Workloads {
		if _, err := workloadByName(wl.Name); err != nil {
			t.Error(err)
		}
	}
}

func TestSubWindowMedian(t *testing.T) {
	// A slow burst covering one third of the window does not move the
	// gated percentiles: each is the median over the thirds.
	w := &workloadDef{Name: "test", DBs: []dbGen{{Name: "x", Weight: 1}}, Strategies: []stratShare{{"default", 1}}, Clients: 1}
	run := &httpRun{window: 3 * time.Second}
	for i := 0; i < 600; i++ {
		s := sample{op: op{Strategy: "default"}, latMS: 1, doneAt: time.Duration(i) * run.window / 600}
		if i >= 200 && i < 400 {
			s.latMS = 10
		}
		run.queries = append(run.queries, s)
	}
	res, _, err := summarize(w, run, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"query_p50_ms", "query_p90_ms", "query_p50_ms.default"} {
		if got := res.Metrics[name].Value; got != 1 {
			t.Errorf("%s = %v, want 1", name, got)
		}
	}
	if got := res.Metrics["queries_per_s"].Value; got != 200 {
		t.Errorf("queries_per_s = %v, want 200", got)
	}
}
