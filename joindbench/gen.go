package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

// dbGen is one database of a workload's catalog and its share of the
// workload's queries.
type dbGen struct {
	Name   string  `json:"name"`
	Shape  string  `json:"shape"`
	Weight float64 `json:"weight"`
	build  func(rng *rand.Rand) (*relation.Database, error)
}

// stratShare is one requested strategy and its share of the queries.
// The name "default" sends no strategy, so joind's auto runs.
type stratShare struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
}

// workloadDef is one traffic mix. Every field except build funcs is a
// traffic parameter and is printed by --describe.
type workloadDef struct {
	Name       string       `json:"name"`
	Why        string       `json:"why"`
	DBs        []dbGen      `json:"databases"`
	Strategies []stratShare `json:"strategies"`
	// Clients is the number of closed-loop query clients.
	Clients int `json:"query_clients"`
	// IngestRate is the open-loop ingest schedule in batches per second
	// (0 = no writes). IngestDB names the database the batches target; it
	// also gets a registered view.
	IngestRate float64 `json:"ingest_batches_per_s,omitempty"`
	IngestDB   string  `json:"ingest_database,omitempty"`
	// Inserts and Deletes are per relation per batch. They are equal so
	// the data's size, and with it each query's work, stays the same
	// through the window.
	Inserts int `json:"ingest_inserts_per_relation,omitempty"`
	Deletes int `json:"ingest_deletes_per_relation,omitempty"`
	// ResultCap > 0 sends include_result with max_result_tuples = ResultCap.
	ResultCap int `json:"result_cap,omitempty"`
	// Sharded runs the service with Shards = GOMAXPROCS.
	Sharded bool `json:"sharded,omitempty"`
	// Fsync is the store's WAL policy when the workload writes
	// (store.ParseFsyncPolicy names; joind's default is always).
	Fsync string `json:"fsync,omitempty"`
}

func triangle(nodes, edges int) func(*rand.Rand) (*relation.Database, error) {
	return func(rng *rand.Rand) (*relation.Database, error) {
		return workload.TriangleSpec{Nodes: nodes, Edges: edges}.TriangleDatabase(rng)
	}
}

func zipfTriangle(size, domain int, s float64) func(*rand.Rand) (*relation.Database, error) {
	return func(rng *rand.Rand) (*relation.Database, error) {
		h, err := hypergraph.ParseScheme("AB BC CA")
		if err != nil {
			return nil, err
		}
		return workload.ZipfDatabase(rng, h, size, domain, s)
	}
}

func example3(q int64) func(*rand.Rand) (*relation.Database, error) {
	return func(*rand.Rand) (*relation.Database, error) {
		spec, err := workload.Example3(q)
		if err != nil {
			return nil, err
		}
		return spec.CycleDatabase()
	}
}

func cycle(n int, m, p int64) func(*rand.Rand) (*relation.Database, error) {
	return func(*rand.Rand) (*relation.Database, error) {
		return workload.UniformCycle(n, m, p).CycleDatabase()
	}
}

func danglingChain(n, domain, dangling int) func(*rand.Rand) (*relation.Database, error) {
	return func(*rand.Rand) (*relation.Database, error) {
		return workload.DanglingChainDatabase(n, domain, dangling)
	}
}

func star(spec workload.StarJoinSpec) func(*rand.Rand) (*relation.Database, error) {
	return func(rng *rand.Rand) (*relation.Database, error) {
		return workload.StarJoin(rng, spec)
	}
}

// cyclicMix is the strategy mix of every cyclic workload: 40% of the
// requests leave the choice to joind, the rest name a strategy. At 50% the
// overall median would sit on the boundary between the default class and
// the next-slower one.
var cyclicMix = []stratShare{
	{"default", 0.4}, {"hybrid", 0.2}, {"columnar", 0.2}, {"wcoj", 0.2},
}

// ingestMix is cyclicMix with more default requests: nearly every query
// after a batch re-plans, which widens the columnar class, so the overall
// median is put inside the default class instead of the columnar one.
var ingestMix = []stratShare{
	{"default", 0.6}, {"hybrid", 0.4 / 3}, {"columnar", 0.4 / 3}, {"wcoj", 0.4 / 3},
}

// cyclicCatalog is the catalog of cyclic-read and sharded-read. The uniform
// triangle carries most of the traffic so that every per-strategy median
// and the overall p50 and p90 fall well inside one request class instead
// of on the boundary between two classes whose latencies differ 10-100x.
func cyclicCatalog() []dbGen {
	return []dbGen{
		{Name: "tri", Shape: "uniform triangle, 150 nodes, 3000 edges", Weight: 0.6, build: triangle(150, 3000)},
		{Name: "zipf", Shape: "Zipf(1.3) triangle, 4000 draws over 300 values", Weight: 0.1, build: zipfTriangle(4000, 300, 1.3)},
		{Name: "ex3q12", Shape: "paper Example 3 4-cycle, q=12", Weight: 0.1, build: example3(12)},
		{Name: "ex3q14", Shape: "paper Example 3 4-cycle, q=14", Weight: 0.1, build: example3(14)},
		{Name: "cyc5", Shape: "uniform 5-cycle, link domain 8, 6 payloads", Weight: 0.1, build: cycle(5, 8, 6)},
	}
}

// workloads lists the benchmark's traffic mixes in run order.
func workloads() []*workloadDef {
	return []*workloadDef{
		{
			Name:       "cyclic-read",
			Why:        "read-only cyclic traffic on a warm plan cache: execution dominates, so executor and kernel changes show here and planner changes should not",
			DBs:        cyclicCatalog(),
			Strategies: cyclicMix,
			Clients:    2,
		},
		{
			Name: "ingest-mixed",
			Why:  "open-loop ingest beside one query client: every batch bumps statistics and drops cached plans, so re-planning, store, sketches and IVM all run",
			DBs: []dbGen{
				{Name: "tri", Shape: "uniform triangle, 100 nodes, 1500 edges, with a registered view", Weight: 1, build: triangle(100, 1500)},
			},
			Strategies: ingestMix,
			Clients:    1,
			IngestRate: 20,
			IngestDB:   "tri",
			Inserts:    3,
			Deletes:    3,
			Fsync:      "always",
		},
		{
			Name: "acyclic-results",
			Why:  "default-strategy queries on acyclic chains and stars with results returned: the full reducer and result serialization dominate; no plan search, triejoin or hybrid",
			DBs: []dbGen{
				{Name: "chain", Shape: "6-relation dangling chain, domain 3000, 500 dangling per relation", Weight: 0.35, build: danglingChain(6, 3000, 500)},
				{Name: "star", Shape: "star join, 3 dimensions (200/100/50 rows), 3000 facts, 20% dangling keys", Weight: 0.65,
					build: star(workload.StarJoinSpec{Dimensions: 3, FactRows: 3000, DimRows: []int{200, 100, 50}, MissRate: 0.2})},
			},
			Strategies: []stratShare{{"default", 1}},
			Clients:    2,
			ResultCap:  1000,
		},
		{
			Name:       "sharded-read",
			Why:        "cyclic-read traffic against a service with Shards = GOMAXPROCS: the only workload that runs in-process scatter-gather",
			DBs:        cyclicCatalog(),
			Strategies: cyclicMix,
			Clients:    2,
			Sharded:    true,
		},
	}
}

func workloadByName(name string) (*workloadDef, error) {
	var names []string
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v and all)", name, names)
}

// genDB is one generated database: its catalog name and the database in
// canonical edge order with attributes prefixed by the name.
type genDB struct {
	name string
	db   *relation.Database
}

// baseSeed fixes the structure every seed's instance is drawn from.
const baseSeed = 1

// generate builds the workload's databases from the seed. Each database is
// drawn once from baseSeed and then relabeled by a seed-dependent bijection
// on its values: every seed gets different tuples over the same join
// structure, with the same result sizes and §2.3 costs, so runs with
// different seeds differ by machine noise rather than by how many triangles
// one random graph happens to have. Attributes are prefixed with the
// database name so that no two databases share a scheme fingerprint (joind
// shares cached plans across databases with equal fingerprints); relations
// are put in canonical edge order so the oracle's direct engine calls search
// the same order the service's plans do.
func (w *workloadDef) generate(seed int64) ([]genDB, error) {
	out := make([]genDB, len(w.DBs))
	for i, g := range w.DBs {
		db, err := g.build(rand.New(rand.NewSource(baseSeed*7919 + int64(i))))
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", g.Name, err)
		}
		db, err = relabeled(db, g.Name, rand.New(rand.NewSource(seed*7919+int64(i))))
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", g.Name, err)
		}
		out[i] = genDB{name: g.Name, db: db}
	}
	return out, nil
}

// relabeled renames db's attributes to tag_attr, maps every value through
// one random permutation of the database's distinct values (a bijection, so
// every join result is preserved up to the same relabeling), and puts the
// relations in canonical edge order.
func relabeled(db *relation.Database, tag string, rng *rand.Rand) (*relation.Database, error) {
	seen := make(map[int64]bool)
	var values []int64
	for _, r := range db.Relations() {
		for _, t := range r.Rows() {
			for _, v := range t {
				if x := v.AsInt(); !seen[x] {
					seen[x] = true
					values = append(values, x)
				}
			}
		}
	}
	sort.Slice(values, func(a, b int) bool { return values[a] < values[b] })
	perm := rng.Perm(len(values))
	to := make(map[int64]relation.Value, len(values))
	for i, x := range values {
		to[x] = relation.Int(values[perm[i]])
	}
	rels := make([]*relation.Relation, db.Len())
	for i, r := range db.Relations() {
		attrs := make([]string, r.Schema().Len())
		for j, a := range r.Schema().Attrs() {
			attrs[j] = tag + "_" + a
		}
		schema, err := relation.NewSchema(attrs...)
		if err != nil {
			return nil, err
		}
		rows := make([]relation.Tuple, r.Len())
		for k, t := range r.Rows() {
			row := make(relation.Tuple, len(t))
			for c, v := range t {
				row[c] = to[v.AsInt()]
			}
			rows[k] = row
		}
		if rels[i], err = relation.NewFromDistinctRows(schema, rows); err != nil {
			return nil, err
		}
	}
	renamed, err := relation.NewDatabase(rels...)
	if err != nil {
		return nil, err
	}
	return renamed.Restrict(hypergraph.OfScheme(renamed).CanonicalOrder())
}

// op is one query a client sends.
type op struct {
	DB       int    `json:"db"`
	Strategy string `json:"strategy"`
}

// opBlock scales one block of a client's stream: every block holds each
// (database, strategy) class weight×opBlock times, rounded to whole ops, in
// a seeded random order, so a run's mix does not drift with the draw and
// percentiles stay inside the classes the weights put them in.
const opBlock = 100

// opSource draws a client's query stream block by block. Each client has its
// own RNG, so the stream a client sends does not depend on how fast the
// others run.
type opSource struct {
	rng   *rand.Rand
	proto []op
	block []op
}

func (w *workloadDef) opSource(seed int64, client int) *opSource {
	src := &opSource{rng: rand.New(rand.NewSource(seed*104729 + int64(client) + 1))}
	for i, d := range w.DBs {
		for _, s := range w.Strategies {
			n := int(math.Round(d.Weight * s.Weight * opBlock))
			for k := 0; k < n; k++ {
				src.proto = append(src.proto, op{DB: i, Strategy: s.Name})
			}
		}
	}
	return src
}

func (s *opSource) next() op {
	if len(s.block) == 0 {
		s.block = append(s.block[:0], s.proto...)
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	o := s.block[0]
	s.block = s.block[1:]
	return o
}

// ingestStream generates n batches against db: each batch deletes
// `deletes` present tuples from and inserts `inserts` absent tuples into
// every relation. Inserted values are drawn from the values each column
// holds in the initial instance, so the batches keep the data's shape.
// Deterministic in seed.
func ingestStream(seed int64, db *relation.Database, n, inserts, deletes int) []store.Batch {
	rng := rand.New(rand.NewSource(seed*15485863 + 17))
	type relState struct {
		present map[string]bool
		rows    []relation.Tuple
		domain  [][]relation.Value
	}
	states := make([]*relState, db.Len())
	for i, r := range db.Relations() {
		st := &relState{present: make(map[string]bool, r.Len())}
		rows := append([]relation.Tuple(nil), r.Rows()...)
		sort.Slice(rows, func(a, b int) bool { return rows[a].Compare(rows[b]) < 0 })
		st.domain = make([][]relation.Value, r.Schema().Len())
		for c := range st.domain {
			seen := make(map[int64]bool)
			for _, t := range rows {
				if x := t[c].AsInt(); !seen[x] {
					seen[x] = true
					st.domain[c] = append(st.domain[c], t[c])
				}
			}
		}
		for _, t := range rows {
			st.present[t.String()] = true
		}
		st.rows = rows
		states[i] = st
	}
	out := make([]store.Batch, n)
	for b := range out {
		batch := make(store.Batch, 0, db.Len())
		for i, st := range states {
			m := store.Mutation{Relation: i}
			for d := 0; d < deletes && len(st.rows) > 0; d++ {
				k := rng.Intn(len(st.rows))
				t := st.rows[k]
				st.rows[k] = st.rows[len(st.rows)-1]
				st.rows = st.rows[:len(st.rows)-1]
				delete(st.present, t.String())
				m.Deletes = append(m.Deletes, t)
			}
			for tries := 0; len(m.Inserts) < inserts && tries < 1000*inserts; tries++ {
				t := make(relation.Tuple, len(st.domain))
				for c, dom := range st.domain {
					t[c] = dom[rng.Intn(len(dom))]
				}
				key := t.String()
				if st.present[key] || deletedIn(m.Deletes, t) {
					continue
				}
				st.present[key] = true
				st.rows = append(st.rows, t)
				m.Inserts = append(m.Inserts, t)
			}
			batch = append(batch, m)
		}
		out[b] = batch
	}
	return out
}

func deletedIn(ts []relation.Tuple, t relation.Tuple) bool {
	for _, u := range ts {
		if u.Equal(t) {
			return true
		}
	}
	return false
}
