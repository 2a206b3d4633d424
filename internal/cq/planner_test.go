package cq

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// skewedDB builds the workload the greedy orderer gets wrong: a big
// relation (bigRows rows, unique join keys) and a tiny one (10 rows).
// For q(Y, Z) :- big(X, Y), small(X, Z) the greedy order ties on bound
// and free variables and falls back to body order — driving the join
// from big — while the cost model drives it from small and probes big's
// index on X.
func skewedDB(bigRows int) (*relation.Database, Query) {
	db := relation.NewDatabase()
	big := relation.New(relation.NewSchema("big",
		relation.Attr("x"), relation.Attr("y")))
	small := relation.New(relation.NewSchema("small",
		relation.Attr("x"), relation.Attr("z")))
	for i := 0; i < bigRows; i++ {
		big.MustInsert(relation.SV(fmt.Sprintf("k%d", i)), relation.SV(fmt.Sprintf("y%d", i%97)))
	}
	for i := 0; i < 10; i++ {
		small.MustInsert(relation.SV(fmt.Sprintf("k%d", i*(bigRows/10))), relation.SV(fmt.Sprintf("z%d", i)))
	}
	db.Put(big)
	db.Put(small)
	q := MustParse("q(Y, Z) :- big(X, Y), small(X, Z)")
	return db, q
}

// TestCostBasedPicksSmallDriver is the skewed-cardinality regression
// test: the cost-based order must drive the join from the tiny
// relation, the greedy order (by construction) from the big one, and
// both must produce the same answer set.
func TestCostBasedPicksSmallDriver(t *testing.T) {
	db, q := skewedDB(5000)

	cost, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if !cost.CostBased() {
		t.Fatal("stats are maintained but the plan is not cost-based")
	}
	if got := cost.atoms[0].rel.Schema.Name; got != "small" {
		t.Fatalf("cost-based driver atom = %q, want small\n%s", got, cost.Explain())
	}
	if cost.atoms[1].probeCol != 0 {
		t.Fatalf("cost-based probe col on big = %d, want 0 (x)\n%s",
			cost.atoms[1].probeCol, cost.Explain())
	}

	greedy, err := CompileOpts(db, q, CompileOptions{ForceGreedy: true})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.CostBased() {
		t.Fatal("ForceGreedy plan claims to be cost-based")
	}
	if got := greedy.atoms[0].rel.Schema.Name; got != "big" {
		t.Fatalf("greedy driver atom = %q, want big (the regression scenario)", got)
	}
	if cost.EstimatedCost() >= greedy.EstimatedCost() {
		t.Fatalf("cost-based estimate %.0f not below greedy proxy %.0f",
			cost.EstimatedCost(), greedy.EstimatedCost())
	}

	a, err := cost.Exec()
	if err != nil {
		t.Fatal(err)
	}
	b, err := greedy.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatalf("answer sets differ: cost-based %d rows, greedy %d rows", a.Len(), b.Len())
	}
	if a.Len() != 10 {
		t.Fatalf("answers = %d, want 10", a.Len())
	}
}

// TestPlannerFallsBackWithoutStats pins the fallback: a relation that
// maintains no statistics (a NewResult relation) compiles to a greedy
// plan.
func TestPlannerFallsBackWithoutStats(t *testing.T) {
	db, _ := skewedDB(100)
	derived := relation.NewResult(relation.NewSchema("derived",
		relation.Attr("x"), relation.Attr("y")))
	if err := derived.InsertBatch(db.Get("big").Rows()); err != nil {
		t.Fatal(err)
	}
	db.Put(derived)
	p, err := Compile(db, MustParse("q(Y) :- derived(X, Y), small(X, Z)"))
	if err != nil {
		t.Fatal(err)
	}
	if p.CostBased() {
		t.Fatal("plan over a statistics-free relation must fall back to greedy")
	}
}

// TestPlannerDifferentialRandomized runs randomized skewed workloads
// through the cost-based planner, the forced-greedy planner, and the
// reference interpreter, and requires identical answer sets. Compared
// with the uniform randomized suite in compile_test.go, the relation
// sizes here differ by orders of magnitude so the two planning modes
// actually choose different orders.
func TestPlannerDifferentialRandomized(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	varPool := []string{"X", "Y", "Z", "W"}
	sizes := []int{0, 3, 40, 150, 600}
	executed := 0
	for trial := 0; trial < 600 && executed < 120; trial++ {
		db := relation.NewDatabase()
		nRels := 2 + rnd.Intn(2)
		var schemas []relation.Schema
		for ri := 0; ri < nRels; ri++ {
			arity := 1 + rnd.Intn(3)
			attrs := make([]relation.Attribute, arity)
			for ai := range attrs {
				attrs[ai] = relation.Attr(fmt.Sprintf("a%d", ai))
			}
			sch := relation.Schema{Name: fmt.Sprintf("r%d", ri), Attrs: attrs}
			rel := relation.New(sch)
			rows := sizes[rnd.Intn(len(sizes))]
			// Value pools sized to the relation: big relations get
			// high-cardinality columns, so distinct counts are skewed too.
			pool := 3 + rows/2
			for i := 0; i < rows; i++ {
				tup := make(relation.Tuple, arity)
				for ai := range tup {
					tup[ai] = relation.SV(fmt.Sprintf("v%d", rnd.Intn(pool)))
				}
				if err := rel.Insert(tup); err != nil {
					t.Fatal(err)
				}
			}
			db.Put(rel)
			schemas = append(schemas, sch)
		}
		nAtoms := 1 + rnd.Intn(3)
		var body []Atom
		for bi := 0; bi < nAtoms; bi++ {
			sch := schemas[rnd.Intn(len(schemas))]
			args := make([]Term, sch.Arity())
			for ai := range args {
				if rnd.Intn(5) == 0 {
					args[ai] = CS(fmt.Sprintf("v%d", rnd.Intn(8)))
				} else {
					args[ai] = V(varPool[rnd.Intn(len(varPool))])
				}
			}
			body = append(body, Atom{Pred: sch.Name, Args: args})
		}
		q := Query{HeadPred: "q", Body: body}
		// Skip worst-case cross products: the reference interpreter
		// materializes every intermediate binding, so an unconstrained
		// product of the larger relations would dominate the suite's
		// runtime without adding planner coverage.
		product := 1.0
		for _, a := range body {
			product *= float64(db.Get(a.Pred).Len()) + 1
		}
		if product > 2e5 {
			continue
		}
		bv := q.BodyVars()
		if len(bv) == 0 {
			continue
		}
		n := 1 + rnd.Intn(len(bv))
		for i := 0; i < n; i++ {
			q.HeadVars = append(q.HeadVars, bv[rnd.Intn(len(bv))])
		}
		executed++

		costEval := func(db Catalog, q Query) (*relation.Relation, error) {
			p, err := CompileOpts(db, q, CompileOptions{})
			if err != nil {
				return nil, err
			}
			return p.Exec()
		}
		greedyEval := func(db Catalog, q Query) (*relation.Relation, error) {
			p, err := CompileOpts(db, q, CompileOptions{ForceGreedy: true})
			if err != nil {
				return nil, err
			}
			return p.Exec()
		}
		cost := sortedRows(t, costEval, db, q)
		greedy := sortedRows(t, greedyEval, db, q)
		ref := sortedRows(t, EvalReference, db, q)
		if len(cost) != len(ref) || len(greedy) != len(ref) {
			t.Fatalf("%s: cost %d, greedy %d, reference %d rows",
				q, len(cost), len(greedy), len(ref))
		}
		for i := range ref {
			if !cost[i].Equal(ref[i]) || !greedy[i].Equal(ref[i]) {
				t.Fatalf("%s: row %d: cost %v, greedy %v, reference %v",
					q, i, cost[i], greedy[i], ref[i])
			}
		}
	}
	if executed < 60 {
		t.Fatalf("only %d trials executed; size cap is skipping too much", executed)
	}
}

// TestCheapestFirstBranchOrder pins the union budgeter: with a limit,
// branches execute in ascending estimated-cost order, and the shared
// plans slice is never mutated.
func TestCheapestFirstBranchOrder(t *testing.T) {
	db, _ := skewedDB(3000)
	qBig := MustParse("q(Y) :- big(X, Y)")
	qSmall := MustParse("q(Z) :- small(X, Z)")
	pBig, err := Compile(db, qBig)
	if err != nil {
		t.Fatal(err)
	}
	pSmall, err := Compile(db, qSmall)
	if err != nil {
		t.Fatal(err)
	}
	plans := []*Plan{pBig, pSmall}
	ordered := plansCheapestFirst(plans)
	if ordered[0] != pSmall || ordered[1] != pBig {
		t.Fatalf("cheapest-first order = [%s %s], want small first",
			ordered[0].query.Body[0].Pred, ordered[1].query.Body[0].Pred)
	}
	if plans[0] != pBig || plans[1] != pSmall {
		t.Fatal("plansCheapestFirst mutated the caller's slice")
	}
	// A Limit=1 union over [expensive, cheap] must answer from the
	// cheap branch: its head variable values are the small relation's.
	var got relation.Tuple
	err = StreamUnionOpts(context.Background(), plans, ExecOptions{Limit: 1},
		func(tu relation.Tuple) bool { got = tu; return true })
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got[0].S[0] != 'z' {
		t.Fatalf("limited union answered %v from the expensive branch, want a small-branch z-value", got)
	}
}

// TestWorthParallelUsesEstimates verifies the estimate a limited
// union orders its branches by comes from the planner's cost model: a
// branch whose driver relation is huge but whose probes are maximally
// selective is estimated at a point lookup's cost, where the
// statistics-free proxy counts every driver row. (The name is from
// when the same estimates also decided whether a union ran its
// branches on a worker pool.)
func TestWorthParallelUsesEstimates(t *testing.T) {
	db, _ := skewedDB(4000)
	sel := MustParse("q(Y) :- big(X, Y), small(X, Z), big(X, W)")
	p, err := Compile(db, sel)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := CompileOpts(db, sel, CompileOptions{ForceGreedy: true})
	if err != nil {
		t.Fatal(err)
	}
	if !p.CostBased() || p.estCostLive() >= 128 {
		t.Fatalf("selective branch estimated at %.1f (cost-based %v), want a point lookup's cost",
			p.estCostLive(), p.CostBased())
	}
	if greedy.estCostLive() < 128 {
		t.Fatalf("stats-free branch estimated at %.1f; expected the driver-atom-rows proxy", greedy.estCostLive())
	}
}

// TestGreedyPlanCostTracksLiveRows pins the execution-time cost of
// statistics-free plans to the driver relation's current size: a plan
// compiled before a bulk load orders by the loaded size afterwards
// (cost-based plans instead bake in their statistics and rely on
// recompilation).
func TestGreedyPlanCostTracksLiveRows(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New(relation.NewSchema("r", relation.Attr("x")))
	db.Put(r)
	p, err := CompileOpts(db, MustParse("q(X) :- r(X)"), CompileOptions{ForceGreedy: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.estCostLive(); got != 0 {
		t.Fatalf("empty-relation plan estimated at %.0f, want 0", got)
	}
	for i := 0; i < 1000; i++ {
		r.MustInsert(relation.SV(fmt.Sprintf("v%d", i)))
	}
	if got := p.estCostLive(); got != 1000 {
		t.Fatalf("greedy plan estimated at %.0f after a 1000-row load; live driver rows expected", got)
	}
}
