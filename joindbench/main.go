// Command joindbench is the repository's serving benchmark: it runs joind's
// HTTP handler in-process behind net/http/httptest, drives one workload's
// traffic for a fixed window, checks every answer against a tuple-map
// oracle, and prints each end-to-end metric by name with its unit. With
// --trace 1 it instead replays the traffic through each layer's public
// entry point and reports per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errWrong marks a run that completed but found wrong answers.
var errWrong = errors.New("wrong answers")

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("joindbench", flag.ContinueOnError)
	wname := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 = traced layer pass and per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for stores and span files")
	describe := fs.Bool("describe", false, "print the workloads' traffic parameters as JSON and exit")
	compare := fs.Bool("compare", false, "compare two files of result lines: joindbench --compare PARENT CHANGE")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *describe {
		b, _ := json.MarshalIndent(map[string]any{"workloads": workloads(), "layer_map": layerMap}, "", "  ")
		fmt.Println(string(b))
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "joindbench: --compare needs two files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "joindbench: need --seconds > 0 and --trace 0|1")
		return 2
	}
	var ws []*workloadDef
	if *wname == "all" {
		ws = workloads()
	} else {
		w, err := workloadByName(*wname)
		if err != nil {
			fmt.Fprintln(os.Stderr, "joindbench:", err)
			return 2
		}
		ws = []*workloadDef{w}
	}
	if err := os.MkdirAll(filepath.Join(*workdir, "spans"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "joindbench:", err)
		return 1
	}
	total := result{Correct: true, Metrics: make(map[string]metric)}
	for _, w := range ws {
		var res result
		var err error
		if *trace == 1 {
			res, err = traced(w, *seed, *seconds, *workdir)
		} else {
			res, err = measured(w, *seed, *seconds, *workdir)
		}
		if err != nil && !errors.Is(err, errWrong) {
			fmt.Fprintf(os.Stderr, "joindbench: %s: %v\n", w.Name, err)
			return 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(ws) > 1 {
				k = w.Name + "/" + k
			}
			total.Metrics[k] = v
		}
	}
	b, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "joindbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !total.Correct {
		return 1
	}
	return 0
}

// endToEnd lists the gated end-to-end metrics: the ones every workload
// defines and that are never zero. They are the JSON result of --trace 0.
var endToEnd = map[string]string{
	"query_p50_ms":         "ms",
	"query_p90_ms":         "ms",
	"queries_per_s":        "1/s",
	"query_p50_ms.default": "ms",
	"setup_s":              "s",
	"heap_live_mb":         "MB",
}

func oracles(w *workloadDef, seed int64) (map[string]*oracle, error) {
	dbs, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*oracle, len(dbs))
	for _, g := range dbs {
		if out[g.name], err = computeOracle(g.db, w.Strategies, w.ResultCap); err != nil {
			return nil, fmt.Errorf("%s: %w", g.name, err)
		}
	}
	return out, nil
}

// subWindows is how many equal parts of the timed window the gated
// latency percentiles and throughput are computed over; the median of the
// parts is reported, so a burst of load from outside the benchmark that
// covers less than half the window does not move them.
const subWindows = 3

// setups is how many times a --trace 0 run sets up; setup_s is the median.
const setups = 3

// measured is the --trace 0 run: set up `setups` times (the last one is
// kept), run the timed window, and report the end-to-end metrics.
func measured(w *workloadDef, seed int64, seconds float64, workdir string) (result, error) {
	or, err := oracles(w, seed)
	if err != nil {
		return result{}, err
	}
	var setupS []float64
	var e *env
	for i := 0; i < setups; i++ {
		ei, s, err := setup(w, seed, workdir, seconds, false, or)
		if err != nil {
			return result{}, err
		}
		setupS = append(setupS, s)
		if i < setups-1 {
			ei.close()
		} else {
			e = ei
		}
	}
	run := e.run(seed, seconds, or)
	e.close()
	res, lines, err := summarize(w, run, true)
	if err != nil {
		return res, err
	}
	res.Metrics["setup_s"] = metric{median(setupS), "s"}
	lines = append(lines, fmt.Sprintf("setup_s %.4f s (median of %d set-ups)", median(setupS), len(setupS)))
	fmt.Printf("# workload %s seed %d window %.1fs\n", w.Name, seed, seconds)
	for _, l := range lines {
		fmt.Println(l)
	}
	for k := range res.Metrics {
		if _, ok := endToEnd[k]; !ok {
			delete(res.Metrics, k)
		}
	}
	if !res.Correct {
		return res, errWrong
	}
	return res, nil
}

// summarize computes the end-to-end metrics of one timed window, and the
// human-readable lines for every metric including those defined on only
// some workloads.
func summarize(w *workloadDef, run *httpRun, requireP90 bool) (result, []string, error) {
	res := result{Correct: true, Metrics: make(map[string]metric)}
	var lines []string
	var all []float64
	byStrat := make(map[string][]float64)
	byClass := make(map[string][]float64)
	classHits := make(map[string]int)
	// Gated metrics are computed per sub-window (by completion time) and
	// the median over the sub-windows is reported.
	var sub, subDefault [subWindows][]float64
	var subCompleted [subWindows]int
	for _, s := range run.queries {
		res.Attempted++
		k := min(int(int64(s.doneAt)*subWindows/int64(run.window)), subWindows-1)
		if s.failure != "" {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(os.Stderr, "joindbench: %s: failed query %s/%s: %s\n", w.Name, w.DBs[s.op.DB].Name, s.op.Strategy, s.failure)
		} else if s.doneAt <= run.window {
			subCompleted[k]++
		}
		sub[k] = append(sub[k], s.latMS)
		if s.op.Strategy == "default" {
			subDefault[k] = append(subDefault[k], s.latMS)
		}
		all = append(all, s.latMS)
		class := w.DBs[s.op.DB].Name + "/" + s.op.Strategy
		byClass[class] = append(byClass[class], s.latMS)
		if s.resp.CacheHit {
			classHits[class]++
		}
		byStrat[s.op.Strategy] = append(byStrat[s.op.Strategy], s.latMS)
	}
	var ingest []float64
	for _, is := range run.ingests {
		res.Attempted++
		if is.failure != "" {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(os.Stderr, "joindbench: %s: failed ingest: %s\n", w.Name, is.failure)
		}
		ingest = append(ingest, is.latMS)
	}
	res.Attempted += run.extraOps
	for _, f := range run.endFailures {
		res.Failed++
		res.Correct = false
		fmt.Fprintf(os.Stderr, "joindbench: %s: %s\n", w.Name, f)
	}
	var p50s, p90s, defaults, qps []float64
	counts := make([]string, subWindows)
	for k := 0; k < subWindows; k++ {
		if requireP90 && !supports(0.9, len(sub[k])) {
			return res, nil, fmt.Errorf("%d query samples in a third of the window leave fewer than %d beyond p90; lengthen --seconds", len(sub[k]), minBeyond)
		}
		if len(sub[k]) == 0 || len(subDefault[k]) == 0 {
			return res, nil, fmt.Errorf("a third of the window has no default-strategy queries; lengthen --seconds")
		}
		p50s = append(p50s, quantile(sub[k], 0.5))
		p90s = append(p90s, quantile(sub[k], 0.9))
		defaults = append(defaults, quantile(subDefault[k], 0.5))
		qps = append(qps, float64(subCompleted[k])/(run.window.Seconds()/subWindows))
		counts[k] = strconv.Itoa(len(sub[k]))
	}
	add := func(name string, v float64, unit, note string) {
		res.Metrics[name] = metric{v, unit}
		lines = append(lines, strings.TrimSpace(fmt.Sprintf("%s %.4f %s %s", name, v, unit, note)))
	}
	n := fmt.Sprintf("(median of the window's thirds, n=%s)", strings.Join(counts, "/"))
	add("query_p50_ms", medianOf(p50s), "ms", n)
	add("query_p90_ms", medianOf(p90s), "ms", n)
	add("queries_per_s", medianOf(qps), "1/s", n)
	if hp := highestPercentile(len(all)); hp > 0.9 {
		lines = append(lines, fmt.Sprintf("query_p%s_ms %.4f ms (whole window, n=%d)", pctName(hp), quantile(all, hp), len(all)))
	}
	for _, s := range w.Strategies {
		xs := byStrat[s.Name]
		if len(xs) == 0 {
			return res, nil, fmt.Errorf("no %s queries in the window; lengthen --seconds", s.Name)
		}
		if s.Name == "default" {
			add("query_p50_ms.default", medianOf(defaults), "ms", fmt.Sprintf("(median of the window's thirds, n=%d)", len(xs)))
			continue
		}
		add("query_p50_ms."+s.Name, quantile(xs, 0.5), "ms", fmt.Sprintf("(whole window, n=%d)", len(xs)))
	}
	if len(ingest) > 0 {
		ni := fmt.Sprintf("(n=%d)", len(ingest))
		add("ingest_p50_ms", quantile(ingest, 0.5), "ms", ni)
		if supports(0.9, len(ingest)) {
			add("ingest_p90_ms", quantile(ingest, 0.9), "ms", ni)
		} else {
			lines = append(lines, fmt.Sprintf("ingest_p90_ms unsupported %s: fewer than %d samples beyond it", ni, minBeyond))
		}
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		xs := byClass[c]
		lines = append(lines, fmt.Sprintf("class %s p10/p50/p90 %.2f/%.2f/%.2f ms, share %.3f, plan cache hits %.2f (n=%d)",
			c, quantile(xs, 0.1), quantile(xs, 0.5), quantile(xs, 0.9), float64(len(xs))/float64(len(all)), float64(classHits[c])/float64(len(xs)), len(xs)))
	}
	add("ops_failed_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio", fmt.Sprintf("(%d of %d ops)", res.Failed, res.Attempted))
	add("heap_live_mb", run.heapMB, "MB", "(median live heap in the window)")
	lines = append(lines, fmt.Sprintf("heap_live_peak_mb %.4f MB", run.heapPeakMB),
		fmt.Sprintf("heap_inuse_peak_mb %.4f MB (HeapInuse, garbage included)", run.inuseMB))
	return res, lines, nil
}

func pctName(q float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.1f", q*100), "0"), ".")
}

// traced is the --trace 1 run: the HTTP window with the service's tracer
// off and then on (half the window each, for the tracing overhead), then
// the layer pass over the tracer-off run's traffic.
func traced(w *workloadDef, seed int64, seconds float64, workdir string) (result, error) {
	or, err := oracles(w, seed)
	if err != nil {
		return result{}, err
	}
	half := seconds / 2
	eA, _, err := setup(w, seed, workdir, half, false, or)
	if err != nil {
		return result{}, err
	}
	runA := eA.run(seed, half, or)
	scrape, serr := eA.get("/metrics")
	eA.close()
	if serr != nil {
		return result{}, serr
	}
	eB, _, err := setup(w, seed, workdir, half, true, or)
	if err != nil {
		return result{}, err
	}
	runB := eB.run(seed, half, or)
	eB.close()

	resA, _, err := summarize(w, runA, false)
	if err != nil {
		return resA, err
	}
	resB, _, err := summarize(w, runB, false)
	if err != nil {
		return resB, err
	}
	res := result{
		Correct:   resA.Correct && resB.Correct,
		Attempted: resA.Attempted + resB.Attempted,
		Failed:    resA.Failed + resB.Failed,
	}
	lp, err := runLayerPass(w, seed, eA.dbs, eA.batches, runA, workdir)
	if err != nil {
		return res, err
	}
	spanFile := filepath.Join(workdir, "spans", fmt.Sprintf("%s-seed%d.json", w.Name, seed))
	if err := lp.rec.write(spanFile); err != nil {
		return res, err
	}
	for _, m := range lp.mismatches {
		fmt.Fprintf(os.Stderr, "joindbench: %s: reconciliation: %s\n", w.Name, m)
		res.Correct = false
	}
	overhead := 100 * (resB.Metrics["query_p50_ms"].Value - resA.Metrics["query_p50_ms"].Value) / resA.Metrics["query_p50_ms"].Value
	res.Metrics = layerMetrics(lp, runA, promScrape(scrape), eA.registerMS, overhead)
	fmt.Printf("# workload %s seed %d traced: %d spans in %s, served answers reconciled by strategy %v, %d mismatches\n",
		w.Name, seed, len(lp.rec.spans), spanFile, lp.reconciled, len(lp.mismatches))
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s %.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if !res.Correct {
		return res, errWrong
	}
	return res, nil
}

// layerStrategies are the strategies per-layer metrics are split by.
var layerStrategies = []string{"program", "columnar", "hybrid", "wcoj", "acyclic"}

func layerMetrics(lp *layerPass, run *httpRun, scrape map[string]float64, registerMS []float64, overheadPct float64) map[string]metric {
	self := lp.rec.selfByName()
	tuples := lp.rec.tuplesByName()
	spanTuples := make(map[string][]float64)
	for _, s := range lp.rec.spans {
		spanTuples[s.Name] = append(spanTuples[s.Name], float64(s.Tuples))
	}
	med := func(name string) float64 {
		if xs := self[name]; len(xs) > 0 {
			return median(xs)
		}
		return 0
	}
	nsPerTuple := func(name string) float64 {
		if tuples[name] == 0 {
			return 0
		}
		total := 0.0
		for _, x := range self[name] {
			total += x
		}
		return total * 1e6 / float64(tuples[name])
	}
	m := make(map[string]metric)

	late := 0.0
	for _, is := range run.ingests {
		late = math.Max(late, is.lateMS)
	}
	for _, s := range run.queries {
		late = math.Max(late, s.lateMS)
	}
	m["loadgen.late_ms"] = metric{late, "ms"}

	var bytes []float64
	hits, queued, ok := 0, 0, 0
	for _, s := range run.queries {
		if s.failure != "" {
			continue
		}
		ok++
		if s.resp.CacheHit {
			hits++
		}
		if s.resp.QueueWaitMS > 0 {
			queued++
		}
		bytes = append(bytes, float64(s.bytes))
	}
	// The share of queries that waited for a worker slot, from the
	// responses' queue_wait_ms. With at most GOMAXPROCS clients against
	// GOMAXPROCS workers it is 0; it moves when admission starts queueing.
	m["service.queued_ratio"] = metric{float64(queued) / float64(max(ok, 1)), "ratio"}
	m["service.response_bytes"] = metric{median(bytes), "bytes"}
	m["service.register_ms"] = metric{median(registerMS), "ms"}
	m["plancache.hit_ratio"] = metric{float64(hits) / float64(max(ok, 1)), "ratio"}
	inval := 0
	for _, is := range run.ingests {
		inval += is.resp.PlansInvalidated
	}
	m["plancache.invalidated_per_ingest"] = metric{float64(inval) / float64(max(len(run.ingests), 1)), "count"}

	for _, s := range []string{"program", "columnar", "hybrid", "wcoj"} {
		m["engine.plan_ms."+s] = metric{med("engine.plan/" + s), "ms"}
	}
	m["optimizer.catalog_ms"] = metric{med("optimizer.catalog"), "ms"}
	catalogTuples := 0.0
	if xs := spanTuples["optimizer.catalog"]; len(xs) > 0 {
		catalogTuples = median(xs)
	}
	m["optimizer.catalog_tuples"] = metric{catalogTuples, "count"}
	m["core.derive_ms"] = metric{med("core.derive"), "ms"}
	m["optimizer.choose_hybrid_ms"] = metric{med("optimizer.choose_hybrid"), "ms"}
	m["optimizer.qerror_p50"] = metric{histQuantile(scrape, "joind_optimizer_qerror", 0.5), "ratio"}
	m["optimizer.sketch_apply_ms"] = metric{med("optimizer.sketch_apply"), "ms"}

	for _, s := range layerStrategies {
		m["engine.exec_ms."+s] = metric{med("engine.exec/" + s), "ms"}
		m["govern.produced_tuples."+s] = metric{float64(lp.produced[s]), "count"}
		useful := 0.0
		if lp.produced[s] > 0 {
			useful = float64(lp.results[s]) / float64(lp.produced[s])
		}
		m["engine.useful_ratio."+s] = metric{useful, "ratio"}
	}
	m["program.ns_per_tuple"] = metric{nsPerTuple("program.apply"), "ns"}
	m["jointree.columnar_ns_per_tuple"] = metric{nsPerTuple("jointree.columnar"), "ns"}
	m["wcoj.ns_per_tuple"] = metric{nsPerTuple("wcoj.join"), "ns"}
	m["acyclic.ns_per_tuple"] = metric{nsPerTuple("acyclic.join"), "ns"}
	m["relation.encode_ms"] = metric{med("relation.encode"), "ms"}
	m["relation.decode_ms"] = metric{med("relation.decode"), "ms"}
	m["relation.json_encode_ms"] = metric{med("relation.json_encode"), "ms"}

	m["store.apply_ms"] = metric{med("store.apply"), "ms"}
	walPerTuple := 0.0
	if lp.ingestTuples > 0 {
		walPerTuple = float64(lp.walBytes) / float64(lp.ingestTuples)
	}
	m["store.wal_bytes_per_tuple"] = metric{walPerTuple, "bytes"}
	m["store.checkpoints"] = metric{float64(lp.storeStats.Checkpoints), "count"}
	m["store.snapshot_bytes"] = metric{float64(lp.storeStats.SnapshotBytes), "bytes"}

	m["ivm.apply_ms"] = metric{med("ivm.apply"), "ms"}
	m["ivm.delta_tuples"] = metric{float64(tuples["ivm.apply"]), "count"}
	m["ivm.rebuilds"] = metric{scrape["joind_view_full_rebuilds_total"], "count"}

	m["shard.run_ms"] = metric{med("shard.run"), "ms"}
	scattered, single := scrape["joind_shard_executions_total"], scrape["joind_shard_single_fallbacks_total"]
	scatter := 0.0
	if scattered+single > 0 {
		scatter = scattered / (scattered + single)
	}
	m["shard.scatter_ratio"] = metric{scatter, "ratio"}
	imb := 0.0
	if len(lp.imbalance) > 0 {
		imb = median(lp.imbalance)
	}
	m["shard.imbalance"] = metric{imb, "ratio"}
	m["shard.group_build_ms"] = metric{med("shard.group_build"), "ms"}
	m["obs.trace_overhead_pct"] = metric{overheadPct, "%"}
	return m
}
