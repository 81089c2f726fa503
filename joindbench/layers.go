package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"

	"repro/internal/acyclic"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/hypergraph"
	"repro/internal/ivm"
	"repro/internal/optimizer"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/wcoj"
)

// The traced layer pass replays the HTTP run's operations in-process and
// calls each layer's public entry point directly, inside spans of its own.
// Replayed queries must report the same §2.3 cost and governor charge as
// the HTTP responses for the same database, strategy and statistics
// version; that proves the pass measured the plans the service served.
//
// Layers the workload's own traffic never reaches are still measured, on a
// small probe (an ingest stream into a private store, a shard group over
// the first database, an acyclic chain or the other strategies), so every
// per-layer metric reads a measured value on every workload. Probe queries
// are not reconciled: no HTTP response exists for them.

type layerPass struct {
	rec        *recorder
	workdir    string
	reqs       int
	mismatches []string
	// reconciled counts the served answers checked, by requested strategy.
	reconciled map[string]int

	produced map[string]int64 // governor charges of engine.ExecutePlan, by strategy
	results  map[string]int64 // result tuples of the same calls
	// imbalance is max/mean per-shard produced tuples, one per scattered replay.
	imbalance []float64
	// walBytes and ingestTuples accumulate over replayed batches.
	walBytes, ingestTuples int64
	storeStats             store.Stats
}

func newLayerPass(workdir string) *layerPass {
	return &layerPass{
		rec:        newRecorder(),
		workdir:    workdir,
		produced:   make(map[string]int64),
		results:    make(map[string]int64),
		reconciled: make(map[string]int),
	}
}

func govFor() *govern.Governor {
	return govern.New(govern.Limits{Context: context.Background()})
}

func execOpts() engine.Options {
	return engine.Options{Limits: govern.Limits{Context: context.Background()}}
}

// resolve maps a requested strategy name to the strategy joind runs.
func resolve(db *relation.Database, name string) (engine.Strategy, error) {
	if name == "default" {
		return engine.Resolve(hypergraph.OfScheme(db), engine.StrategyAuto), nil
	}
	return engine.ParseStrategy(name)
}

// canonical returns db in canonical edge order, with the permutation that
// maps canonical positions to db's positions.
func canonical(db *relation.Database) (*relation.Database, *hypergraph.Hypergraph, []int, error) {
	perm := hypergraph.OfScheme(db).CanonicalOrder()
	cdb, err := db.Restrict(perm)
	if err != nil {
		return nil, nil, nil, err
	}
	return cdb, hypergraph.OfScheme(cdb), perm, nil
}

// replayQuery runs one query through every layer: planning (engine.PlanFor,
// and the optimizer, derivation and chooser calls it makes, called
// directly), execution (engine.ExecutePlan or shard.Run) and the kernel
// the plan executes on, block encoding and JSON encoding of the result. It
// returns the execution reports to reconcile served answers against:
// engine.ExecutePlan's, and shard.Run's when grp is set.
func (lp *layerPass) replayQuery(label string, db *relation.Database, sk *optimizer.DBSketches, name string, grp *shard.Group) ([]*engine.Report, error) {
	req := fmt.Sprintf("q%d", lp.reqs)
	lp.reqs++
	rec := lp.rec
	root := rec.start("request", req, -1)
	defer rec.end(root, 0)

	strat, err := resolve(db, name)
	if err != nil {
		return nil, err
	}
	cdb, ch, perm, err := canonical(db)
	if err != nil {
		return nil, err
	}
	var plan *engine.Plan
	if err := rec.timed("engine.plan/"+strat.String(), req, root, func() (int64, error) {
		plan, err = engine.PlanFor(db, engine.Options{Strategy: strat, Sketches: sk})
		return 0, err
	}); err != nil {
		return nil, fmt.Errorf("%s: plan: %w", label, err)
	}
	switch strat {
	case engine.StrategyProgram, engine.StrategyColumnar:
		space := optimizer.SpaceCPF
		if strat == engine.StrategyProgram || !ch.Connected(ch.Full()) {
			space = optimizer.SpaceAll
		}
		var best optimizer.Plan
		if err := rec.timed("optimizer.catalog", req, root, func() (int64, error) {
			cat := optimizer.NewCatalog(cdb, 0)
			best, err = optimizer.Optimal(cat, space)
			return cat.Spent(), err
		}); err != nil {
			return nil, fmt.Errorf("%s: catalog: %w", label, err)
		}
		if strat == engine.StrategyProgram {
			if err := rec.timed("core.derive", req, root, func() (int64, error) {
				_, err := core.DeriveFromTree(best.Tree, ch, nil)
				return 0, err
			}); err != nil {
				return nil, fmt.Errorf("%s: derive: %w", label, err)
			}
		}
	case engine.StrategyHybrid:
		snap := sk.Snapshot()
		sks := make([]*optimizer.Sketch, len(perm))
		for i, p := range perm {
			sks[i] = snap[p]
		}
		if err := rec.timed("optimizer.choose_hybrid", req, root, func() (int64, error) {
			_, err := optimizer.ChooseHybrid(ch, sks, sk.Correction(ch.Fingerprint()), optimizer.HybridConfig{})
			return 0, err
		}); err != nil {
			return nil, fmt.Errorf("%s: choose hybrid: %w", label, err)
		}
	}

	var rep *engine.Report
	if err := rec.timed("engine.exec/"+strat.String(), req, root, func() (int64, error) {
		rep, err = engine.ExecutePlan(db, plan, execOpts())
		if err != nil {
			return 0, err
		}
		return rep.Produced, nil
	}); err != nil {
		return nil, fmt.Errorf("%s: execute: %w", label, err)
	}
	lp.produced[strat.String()] += rep.Produced
	lp.results[strat.String()] += int64(rep.Result.Len())
	got := []*engine.Report{rep}

	if grp != nil {
		var srep *engine.Report
		if err := rec.timed("shard.run", req, root, func() (int64, error) {
			srep, err = shard.Run(grp, plan, execOpts(), shard.NewInProcess(grp))
			if err != nil {
				return 0, err
			}
			return srep.Produced, nil
		}); err != nil {
			return nil, fmt.Errorf("%s: shard run: %w", label, err)
		}
		got = append(got, srep)
		if ok, _ := grp.CleanFor(plan); ok && grp.Shards() > 1 {
			ex := shard.NewInProcess(grp)
			var total, peak int64
			for i := 0; i < grp.Shards(); i++ {
				var res *shard.Result
				if err := rec.timed("shard.execute", req, root, func() (int64, error) {
					res, err = ex.Execute(context.Background(), i, shard.Task{Plan: plan, Limits: govern.Limits{Context: context.Background()}, Workers: 1})
					if err != nil {
						return 0, err
					}
					return res.Produced, nil
				}); err != nil {
					return nil, fmt.Errorf("%s: shard %d: %w", label, i, err)
				}
				total += res.Produced
				peak = max(peak, res.Produced)
			}
			if total > 0 {
				lp.imbalance = append(lp.imbalance, float64(peak)*float64(grp.Shards())/float64(total))
			}
		}
	}
	if err := lp.kernel(req, root, cdb, plan); err != nil {
		return nil, fmt.Errorf("%s: kernel: %w", label, err)
	}
	if err := rec.timed("relation.encode", req, root, func() (int64, error) {
		for _, r := range cdb.Relations() {
			relation.FromRelation(r)
		}
		return int64(cdb.TotalTuples()), nil
	}); err != nil {
		return nil, err
	}
	block := relation.FromRelation(rep.Result)
	if err := rec.timed("relation.decode", req, root, func() (int64, error) {
		return int64(block.ToRelation().Len()), nil
	}); err != nil {
		return nil, err
	}
	err = rec.timed("relation.json_encode", req, root, func() (int64, error) {
		b, err := json.Marshal(rep.Result)
		return int64(len(b)), err
	})
	return got, err
}

// reconcile checks served answers against replays. byVersion holds, for
// each statistics version an answer may have run at, the reports replayed
// at that version; every answer must equal all reports of one version in
// its §2.3 cost and governor charge.
func (lp *layerPass) reconcile(label, strat string, served []queryResp, byVersion [][]*engine.Report) {
	for _, s := range served {
		lp.reconciled[strat]++
		ok := false
		for _, reps := range byVersion {
			match := len(reps) > 0
			for _, r := range reps {
				match = match && s.Cost == r.Cost && s.Produced == r.Produced
			}
			ok = ok || match
		}
		if !ok {
			var seen []string
			for _, reps := range byVersion {
				for _, r := range reps {
					seen = append(seen, fmt.Sprintf("cost %d produced %d", r.Cost, r.Produced))
				}
			}
			lp.mismatches = append(lp.mismatches, fmt.Sprintf("%s: served cost %d produced %d, layer pass %v", label, s.Cost, s.Produced, seen))
		}
	}
}

// kernel calls the execution kernel the plan runs on directly, with a
// fresh governor, and records the tuples it charged.
func (lp *layerPass) kernel(req string, parent int, cdb *relation.Database, plan *engine.Plan) error {
	rec := lp.rec
	gov := govFor()
	switch plan.Strategy {
	case engine.StrategyProgram:
		return rec.timed("program.apply", req, parent, func() (int64, error) {
			_, err := plan.Derivation.Program.ApplyGoverned(cdb, gov)
			return gov.Produced(), err
		})
	case engine.StrategyColumnar:
		return rec.timed("jointree.columnar", req, parent, func() (int64, error) {
			_, _, err := plan.Tree.EvalColumnarGoverned(cdb, gov)
			return gov.Produced(), err
		})
	case engine.StrategyWCOJ:
		return rec.timed("wcoj.join", req, parent, func() (int64, error) {
			_, err := wcoj.JoinGoverned(cdb, plan.VarOrder, gov, 1)
			return gov.Produced(), err
		})
	case engine.StrategyAcyclic:
		return rec.timed("acyclic.join", req, parent, func() (int64, error) {
			_, _, err := acyclic.JoinGoverned(cdb, gov)
			return gov.Produced(), err
		})
	case engine.StrategyHybrid:
		hp := plan.Hybrid
		switch {
		case hp.Route == optimizer.RouteWCOJ:
			return rec.timed("wcoj.join", req, parent, func() (int64, error) {
				_, err := wcoj.JoinGoverned(cdb, hp.CoreOrder, gov, 1)
				return gov.Produced(), err
			})
		case hp.Route == optimizer.RouteBinary && hp.Outer != nil:
			return rec.timed("jointree.columnar", req, parent, func() (int64, error) {
				_, _, err := hp.Outer.EvalColumnarGoverned(cdb, gov)
				return gov.Produced(), err
			})
		case hp.Route == optimizer.RouteAcyclic:
			return rec.timed("acyclic.join", req, parent, func() (int64, error) {
				_, _, err := acyclic.JoinGoverned(cdb, gov)
				return gov.Produced(), err
			})
		}
	}
	return nil
}

// ingestReplay owns a private durable store, sketch set and view over one
// database, and replays batches through them layer by layer.
type ingestReplay struct {
	st   *store.Store
	dir  string
	name string
	db   *relation.Database
	sk   *optimizer.DBSketches
	view *ivm.View
}

func (lp *layerPass) openIngest(name string, db *relation.Database) (*ingestReplay, error) {
	dir, err := os.MkdirTemp(lp.workdir, "layer-store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ir := &ingestReplay{st: st, dir: dir, name: name, db: db, sk: optimizer.CollectSketches(db)}
	if err := st.Create(name, db); err != nil {
		ir.close(lp)
		return nil, err
	}
	if ir.view, err = ivm.Compile(db); err == nil {
		err = ir.view.Rebuild(db)
	}
	if err != nil {
		ir.close(lp)
		return nil, err
	}
	return ir, nil
}

func (ir *ingestReplay) close(lp *layerPass) {
	lp.storeStats = ir.st.Stats()
	if err := ir.st.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "joindbench: close layer store:", err)
	}
	os.RemoveAll(ir.dir)
}

// apply replays one batch in the order joind's ingest path runs it: the
// durable store, the statistics sketches, then the view.
func (lp *layerPass) apply(ir *ingestReplay, b store.Batch) error {
	req := fmt.Sprintf("i%d", lp.reqs)
	lp.reqs++
	rec := lp.rec
	root := rec.start("ingest", req, -1)
	defer rec.end(root, 0)
	var applied store.ApplyResult
	if err := rec.timed("store.apply", req, root, func() (n int64, err error) {
		applied, err = ir.st.Apply(ir.name, b)
		return applied.WALBytes, err
	}); err != nil {
		return fmt.Errorf("store apply: %w", err)
	}
	ir.db = applied.DB
	lp.walBytes += applied.WALBytes
	lp.ingestTuples += int64(b.Tuples())
	if err := rec.timed("optimizer.sketch_apply", req, root, func() (int64, error) {
		var delta int64
		for _, m := range b {
			d, _ := ir.sk.Apply(m.Relation, m.Inserts, m.Deletes, applied.DB.Relation(m.Relation))
			delta += d
		}
		ir.sk.SetVersion(applied.Version)
		return delta, nil
	}); err != nil {
		return err
	}
	changes := make([]ivm.Change, len(b))
	for i, m := range b {
		changes[i] = ivm.Change{Relation: m.Relation, Inserts: m.Inserts, Deletes: m.Deletes}
	}
	return rec.timed("ivm.apply", req, root, func() (int64, error) {
		st, err := ir.view.Apply(changes, govFor())
		return st.TuplesIn, err
	})
}

// servedClass groups the HTTP responses of one (database, strategy) pair
// whose statistics version lies in [lo, hi].
type servedClass struct {
	db     int
	strat  string
	lo, hi int64
	resps  []queryResp
}

// classes groups the successful HTTP queries by database, strategy and
// version interval, in a deterministic order. Queries that overlapped more
// than one batch are left out.
func classes(qs []sample) []*servedClass {
	type key struct {
		db     int
		strat  string
		lo, hi int64
	}
	m := make(map[key]*servedClass)
	var out []*servedClass
	for _, s := range qs {
		if s.failure != "" || s.hiV > s.loV+1 {
			continue
		}
		k := key{s.op.DB, s.op.Strategy, s.loV, s.hiV}
		c, ok := m[k]
		if !ok {
			c = &servedClass{db: k.db, strat: k.strat, lo: k.lo, hi: k.hi}
			m[k] = c
			out = append(out, c)
		}
		c.resps = append(c.resps, s.resp)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.lo != b.lo {
			return a.lo < b.lo
		}
		if a.hi != b.hi {
			return a.hi < b.hi
		}
		if a.db != b.db {
			return a.db < b.db
		}
		return a.strat < b.strat
	})
	return out
}

// maxReplayVersions bounds how many anchor versions of the ingest workload
// have their queries replayed (every batch is still replayed).
const maxReplayVersions = 8

// runLayerPass replays run's traffic for workload w over dbs and the probes.
func runLayerPass(w *workloadDef, seed int64, dbs []genDB, batches []store.Batch, run *httpRun, workdir string) (*layerPass, error) {
	lp := newLayerPass(workdir)
	nshards := runtime.GOMAXPROCS(0)
	cls := classes(run.queries)

	groups := make([]*shard.Group, len(dbs))
	if w.Sharded {
		for i, g := range dbs {
			var err error
			if err = lp.rec.timed("shard.group_build", "setup", -1, func() (int64, error) {
				groups[i], err = shard.NewGroup(g.name, g.db, nshards, shard.DefaultBroadcastThreshold)
				return 0, err
			}); err != nil {
				return nil, err
			}
		}
	}

	if w.IngestRate == 0 {
		for _, c := range cls {
			g := dbs[c.db]
			label := fmt.Sprintf("%s/%s", g.name, c.strat)
			reps, err := lp.replayQuery(label, g.db, optimizer.CollectSketches(g.db), c.strat, groups[c.db])
			if err != nil {
				return nil, err
			}
			lp.reconcile(label, c.strat, c.resps, [][]*engine.Report{reps})
		}
	} else {
		if err := lp.replayIngestWorkload(w, dbs, batches, run, cls); err != nil {
			return nil, err
		}
	}
	if err := lp.probes(w, seed, dbs); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	return lp, nil
}

// replayIngestWorkload replays every acknowledged batch in order. Queries
// are replayed at up to maxReplayVersions anchor versions and the version
// after each, so that answers whose version is known, and answers that
// overlapped one batch (version lo or lo+1), can be reconciled.
func (lp *layerPass) replayIngestWorkload(w *workloadDef, dbs []genDB, batches []store.Batch, run *httpRun, cls []*servedClass) error {
	idx := 0
	for i, g := range dbs {
		if g.name == w.IngestDB {
			idx = i
		}
	}
	var anchors []int64
	seen := make(map[int64]bool)
	for _, c := range cls {
		if !seen[c.lo] {
			seen[c.lo] = true
			anchors = append(anchors, c.lo)
		}
	}
	chosen := make(map[int64]bool)
	for k := 0; k < maxReplayVersions && k < len(anchors); k++ {
		chosen[anchors[k*len(anchors)/min(maxReplayVersions, len(anchors))]] = true
	}
	acked := int64(0)
	for _, is := range run.ingests {
		if is.failure != "" {
			break
		}
		acked++
	}
	ir, err := lp.openIngest(w.IngestDB, dbs[idx].db)
	if err != nil {
		return err
	}
	defer ir.close(lp)
	type vs struct {
		v     int64
		strat string
	}
	replayed := make(map[vs][]*engine.Report)
	for v := int64(0); v <= acked; v++ {
		for _, c := range cls {
			if !chosen[c.lo] || v < c.lo || v > c.hi {
				continue
			}
			if _, done := replayed[vs{v, c.strat}]; done {
				continue
			}
			reps, err := lp.replayQuery(fmt.Sprintf("%s/%s@v%d", w.IngestDB, c.strat, v), ir.db, ir.sk, c.strat, nil)
			if err != nil {
				return err
			}
			replayed[vs{v, c.strat}] = reps
		}
		if v < acked {
			if err := lp.apply(ir, batches[v]); err != nil {
				return err
			}
		}
	}
	for _, c := range cls {
		if !chosen[c.lo] {
			continue
		}
		var byVersion [][]*engine.Report
		for v := c.lo; v <= c.hi; v++ {
			if reps, ok := replayed[vs{v, c.strat}]; ok {
				byVersion = append(byVersion, reps)
			}
		}
		lp.reconcile(fmt.Sprintf("%s/%s@v%d-%d", w.IngestDB, c.strat, c.lo, c.hi), c.strat, c.resps, byVersion)
	}
	return nil
}

// probeBatches is the length of the ingest probe's stream.
const probeBatches = 10

// probes measures the layers w's own traffic does not reach.
func (lp *layerPass) probes(w *workloadDef, seed int64, dbs []genDB) error {
	first := dbs[0]
	if w.IngestRate == 0 {
		ir, err := lp.openIngest(first.name, first.db)
		if err != nil {
			return err
		}
		for _, b := range ingestStream(seed, first.db, probeBatches, 3, 3) {
			if err := lp.apply(ir, b); err != nil {
				ir.close(lp)
				return err
			}
		}
		ir.close(lp)
	}
	if !w.Sharded {
		var grp *shard.Group
		var err error
		if err = lp.rec.timed("shard.group_build", "probe", -1, func() (int64, error) {
			grp, err = shard.NewGroup(first.name, first.db, runtime.GOMAXPROCS(0), shard.DefaultBroadcastThreshold)
			return 0, err
		}); err != nil {
			return err
		}
		// Columnar plans scatter on the cyclic catalogs; where the
		// cleanliness analysis refuses scatter, the probe measures
		// shard.Run's single-shard fallback.
		if _, err := lp.replayQuery("probe shard "+first.name, first.db, optimizer.CollectSketches(first.db), "columnar", grp); err != nil {
			return err
		}
	}
	exercised := make(map[string]bool)
	for _, s := range lp.rec.spans {
		exercised[s.Name] = true
	}
	if !exercised["acyclic.join"] {
		chain, err := danglingChain(4, 2000, 200)(nil)
		if err != nil {
			return err
		}
		if chain, err = relabeled(chain, "probe", rand.New(rand.NewSource(seed))); err != nil {
			return err
		}
		if _, err := lp.replayQuery("probe acyclic chain", chain, optimizer.CollectSketches(chain), "default", nil); err != nil {
			return err
		}
	}
	for _, s := range []string{"program", "columnar", "hybrid", "wcoj"} {
		if exercised["engine.exec/"+s] {
			continue
		}
		if _, err := lp.replayQuery("probe "+first.name+"/"+s, first.db, optimizer.CollectSketches(first.db), s, nil); err != nil {
			return err
		}
	}
	return nil
}
