package main

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/hypergraph"
	"repro/internal/ivm"
	"repro/internal/relation"
)

// oracle is one database's reference answer, computed by the sequential
// tuple-map engine routes: the result and its count, and the §2.3 cost
// each requested strategy must report. Hybrid picks its route from
// statistics, so only its result is checked here; the traced layer pass
// reconciles its cost.
type oracle struct {
	rows     *relation.Relation
	count    int
	strategy map[string]string // requested name -> strategy joind reports
	cost     map[string]int64
	prefix   []relation.Tuple // sorted result prefix for include_result
}

func computeOracle(db *relation.Database, mix []stratShare, resultCap int) (*oracle, error) {
	base := engine.StrategyProgram
	if hypergraph.OfScheme(db).Acyclic() {
		base = engine.StrategyAcyclic
	}
	ref, err := engine.Join(db, engine.Options{Strategy: base})
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", base, err)
	}
	o := &oracle{
		rows:     ref.Result,
		count:    ref.Result.Len(),
		strategy: map[string]string{"default": base.String()},
		cost:     map[string]int64{"default": ref.Cost},
	}
	for _, s := range mix {
		switch s.Name {
		case "columnar":
			// Columnar evaluates the same CPF expression as the tuple-map
			// expression route and charges identically.
			ex, err := engine.Join(db, engine.Options{Strategy: engine.StrategyExpression})
			if err != nil {
				return nil, fmt.Errorf("oracle expression: %w", err)
			}
			if ex.Result.Len() != o.count {
				return nil, fmt.Errorf("oracle: expression has %d tuples, %s has %d", ex.Result.Len(), base, o.count)
			}
			o.cost["columnar"] = ex.Cost
			o.strategy["columnar"] = "columnar"
		case "wcoj":
			// The triejoin's §2.3 cost is its inputs plus its output.
			o.cost["wcoj"] = int64(db.TotalTuples()) + int64(o.count)
			o.strategy["wcoj"] = "wcoj"
		case "hybrid":
			o.strategy["hybrid"] = "hybrid"
		}
	}
	if resultCap > 0 {
		rows := ref.Result.SortedRows()
		if len(rows) > resultCap {
			rows = rows[:resultCap]
		}
		o.prefix = rows
	}
	return o, nil
}

// check returns why resp is a wrong answer to the request strategy, or ""
// when it is right.
func (o *oracle) check(resp queryResp, strategy string, resultCap int) string {
	if want := o.strategy[strategy]; resp.Strategy != want {
		return fmt.Sprintf("strategy %q, want %q", resp.Strategy, want)
	}
	if resp.ResultCount != o.count {
		return fmt.Sprintf("%s: result_count %d, oracle %d", strategy, resp.ResultCount, o.count)
	}
	if want, ok := o.cost[strategy]; ok && resp.Cost != want {
		return fmt.Sprintf("%s: cost %d, oracle %d", strategy, resp.Cost, want)
	}
	if resultCap > 0 {
		if resp.Result == nil {
			return "include_result set but no result returned"
		}
		if resp.ResultTruncated != (o.count > resultCap) {
			return fmt.Sprintf("result_truncated %v with %d tuples and cap %d", resp.ResultTruncated, o.count, resultCap)
		}
		got := resp.Result.SortedRows()
		if len(got) != len(o.prefix) {
			return fmt.Sprintf("returned %d tuples, want %d", len(got), len(o.prefix))
		}
		if !resp.Result.Schema().Equal(o.rows.Schema()) {
			return fmt.Sprintf("result schema %s, oracle %s", resp.Result.Schema(), o.rows.Schema())
		}
		for i := range got {
			if !got[i].Equal(o.prefix[i]) {
				return fmt.Sprintf("returned tuple %d is %s, oracle %s", i, got[i], o.prefix[i])
			}
		}
	}
	return ""
}

// recomputeView materializes a fresh view over db: the reference the
// maintained view is checked against.
func recomputeView(db *relation.Database) (*relation.Relation, error) {
	v, err := ivm.Compile(db)
	if err != nil {
		return nil, err
	}
	if err := v.Rebuild(db); err != nil {
		return nil, err
	}
	return v.Result(), nil
}
