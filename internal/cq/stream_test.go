package cq

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// streamRows drains StreamOpts into a slice, failing the test on error.
func streamRows(t *testing.T, db *relation.Database, q Query) []relation.Tuple {
	t.Helper()
	plan, err := Compile(db, q)
	if err != nil {
		t.Fatalf("compile %s: %v", q, err)
	}
	var rows []relation.Tuple
	if err := plan.StreamOpts(context.Background(), ExecOptions{}, func(tup relation.Tuple) bool {
		rows = append(rows, tup)
		return true
	}); err != nil {
		t.Fatalf("stream %s: %v", q, err)
	}
	return rows
}

// tupleSet keys tuples for set comparison.
func tupleSet(rows []relation.Tuple) map[string]bool {
	s := make(map[string]bool, len(rows))
	for _, r := range rows {
		s[r.Key()] = true
	}
	return s
}

// randomDBAndQuery generates one randomized database and safe query —
// the same shape the compiled-vs-reference differential tests use.
func randomDBAndQuery(rnd *rand.Rand) (*relation.Database, Query, bool) {
	db := relation.NewDatabase()
	nRels := 1 + rnd.Intn(3)
	var schemas []relation.Schema
	for ri := 0; ri < nRels; ri++ {
		arity := 1 + rnd.Intn(3)
		attrs := make([]relation.Attribute, arity)
		for ai := range attrs {
			if rnd.Intn(3) == 0 {
				attrs[ai] = relation.IntAttr(fmt.Sprintf("a%d", ai))
			} else {
				attrs[ai] = relation.Attr(fmt.Sprintf("a%d", ai))
			}
		}
		sch := relation.Schema{Name: fmt.Sprintf("r%d", ri), Attrs: attrs}
		rel := relation.New(sch)
		rows := rnd.Intn(40)
		for i := 0; i < rows; i++ {
			tup := make(relation.Tuple, arity)
			for ai, a := range attrs {
				if a.Type == relation.TInt {
					tup[ai] = relation.IV(int64(rnd.Intn(5)))
				} else {
					tup[ai] = relation.SV(fmt.Sprintf("v%d", rnd.Intn(6)))
				}
			}
			rel.MustInsert(tup...)
		}
		db.Put(rel)
		schemas = append(schemas, sch)
	}
	varPool := []string{"X", "Y", "Z", "W", "V"}
	nAtoms := 1 + rnd.Intn(3)
	var body []Atom
	for bi := 0; bi < nAtoms; bi++ {
		sch := schemas[rnd.Intn(len(schemas))]
		args := make([]Term, sch.Arity())
		for ai := range args {
			switch rnd.Intn(4) {
			case 0:
				if sch.Attrs[ai].Type == relation.TInt {
					args[ai] = CI(int64(rnd.Intn(5)))
				} else {
					args[ai] = CS(fmt.Sprintf("v%d", rnd.Intn(6)))
				}
			default:
				args[ai] = V(varPool[rnd.Intn(len(varPool))])
			}
		}
		body = append(body, Atom{Pred: sch.Name, Args: args})
	}
	q := Query{HeadPred: "q", Body: body}
	bv := q.BodyVars()
	if len(bv) == 0 {
		return db, q, false
	}
	n := 1 + rnd.Intn(len(bv))
	for i := 0; i < n; i++ {
		q.HeadVars = append(q.HeadVars, bv[rnd.Intn(len(bv))])
	}
	return db, q, true
}

// TestStreamMatchesExecAndReferenceRandomized holds the three evaluation
// paths — drained StreamOpts, materializing Exec, and the legacy
// map-bindings interpreter — to identical answer sets across a
// randomized query corpus, and checks the Limit contract on the same
// trials: exactly min(Limit, |answers|) tuples, all distinct, all
// members of the full answer.
func TestStreamMatchesExecAndReferenceRandomized(t *testing.T) {
	rnd := rand.New(rand.NewSource(31))
	for trial := 0; trial < 250; trial++ {
		db, q, ok := randomDBAndQuery(rnd)
		if !ok {
			continue
		}
		full := sortedRows(t, Eval, db, q)
		ref := sortedRows(t, EvalReference, db, q)
		streamed := streamRows(t, db, q)

		fullSet, refSet, streamSet := tupleSet(full), tupleSet(ref), tupleSet(streamed)
		if len(streamed) != len(streamSet) {
			t.Fatalf("%s: stream yielded duplicates (%d tuples, %d distinct)",
				q, len(streamed), len(streamSet))
		}
		if len(fullSet) != len(refSet) || len(fullSet) != len(streamSet) {
			t.Fatalf("%s: answer counts differ: exec=%d reference=%d stream=%d",
				q, len(fullSet), len(refSet), len(streamSet))
		}
		for k := range fullSet {
			if !refSet[k] || !streamSet[k] {
				t.Fatalf("%s: tuple %q missing from reference or stream", q, k)
			}
		}

		if len(full) == 0 {
			continue
		}
		limit := 1 + rnd.Intn(len(full))
		plan, err := Compile(db, q)
		if err != nil {
			t.Fatal(err)
		}
		var limited []relation.Tuple
		if err := plan.StreamOpts(context.Background(), ExecOptions{Limit: limit},
			func(tup relation.Tuple) bool {
				limited = append(limited, tup)
				return true
			}); err != nil {
			t.Fatalf("%s limit %d: %v", q, limit, err)
		}
		if len(limited) != limit {
			t.Fatalf("%s: limit %d yielded %d tuples", q, limit, len(limited))
		}
		limSet := tupleSet(limited)
		if len(limSet) != len(limited) {
			t.Fatalf("%s: limited stream yielded duplicates", q)
		}
		for k := range limSet {
			if !fullSet[k] {
				t.Fatalf("%s: limited tuple %q not in full answer", q, k)
			}
		}
	}
}

// crossProductDB builds a 200×200 cross product — big enough that
// cancellation polls (every ctxCheckInterval rows) fire many times
// before exhaustion.
func crossProductDB(t *testing.T) (*relation.Database, Query) {
	t.Helper()
	db := relation.NewDatabase()
	a := relation.New(relation.NewSchema("a", relation.Attr("x")))
	b := relation.New(relation.NewSchema("b", relation.Attr("y")))
	for i := 0; i < 200; i++ {
		a.MustInsert(relation.SV(fmt.Sprintf("a%d", i)))
		b.MustInsert(relation.SV(fmt.Sprintf("b%d", i)))
	}
	db.Put(a)
	db.Put(b)
	return db, MustParse("q(X, Y) :- a(X), b(Y)")
}

// TestStreamCancelledMidJoin cancels the context from inside the first
// yield; the join tree must stop within one poll interval and surface
// ctx.Err().
func TestStreamCancelledMidJoin(t *testing.T) {
	db, q := crossProductDB(t)
	plan, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	yields := 0
	err = plan.StreamOpts(ctx, ExecOptions{}, func(relation.Tuple) bool {
		yields++
		cancel()
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// 40000 answers exist; cancellation must stop enumeration within
	// one ctxCheckInterval window of rows examined.
	if yields > ctxCheckInterval+1 {
		t.Errorf("yields after cancel = %d, want <= %d", yields, ctxCheckInterval+1)
	}
}

// TestStreamPreCancelled runs a pre-cancelled context: the enumeration
// must abort at the first poll, long before the 40000-answer space is
// exhausted.
func TestStreamPreCancelled(t *testing.T) {
	db, q := crossProductDB(t)
	plan, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	yields := 0
	err = plan.StreamOpts(ctx, ExecOptions{}, func(relation.Tuple) bool {
		yields++
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if yields > ctxCheckInterval {
		t.Errorf("yields on dead context = %d, want <= %d", yields, ctxCheckInterval)
	}
}

// TestStreamPreCancelledSmallQuery: even a join smaller than one poll
// interval must fail deterministically on an already-dead context — the
// upfront check, not the periodic poll, catches it.
func TestStreamPreCancelledSmallQuery(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New(relation.NewSchema("r", relation.Attr("a")))
	r.MustInsert(relation.SV("only"))
	db.Put(r)
	plan, err := Compile(db, MustParse("q(X) :- r(X)"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = plan.StreamOpts(ctx, ExecOptions{}, func(relation.Tuple) bool {
		t.Error("yield on a dead context")
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStreamYieldFalseStopsWithoutError distinguishes consumer break
// (no error) from cancellation (ctx.Err()).
func TestStreamYieldFalseStopsWithoutError(t *testing.T) {
	db, q := crossProductDB(t)
	plan, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	yields := 0
	err = plan.StreamOpts(context.Background(), ExecOptions{}, func(relation.Tuple) bool {
		yields++
		return false
	})
	if err != nil {
		t.Fatalf("consumer break surfaced error: %v", err)
	}
	if yields != 1 {
		t.Errorf("yields = %d, want 1", yields)
	}
}

// TestTuplesIteratorBreak ranges over the iter.Seq2 adapter and breaks
// early; the join tree must stop and no error pair may follow.
func TestTuplesIteratorBreak(t *testing.T) {
	db, q := crossProductDB(t)
	plan, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for tup, err := range UnionTuples(context.Background(), []*Plan{plan}, ExecOptions{}) {
		if err != nil {
			t.Fatalf("unexpected error pair: %v", err)
		}
		if tup == nil {
			t.Fatal("nil tuple with nil error")
		}
		got++
		if got == 3 {
			break
		}
	}
	if got != 3 {
		t.Errorf("iterated %d tuples, want 3", got)
	}
}

// TestTuplesIteratorSurfacesCancellation checks the final (nil, err)
// pair contract of the iterator adapter.
func TestTuplesIteratorSurfacesCancellation(t *testing.T) {
	db, q := crossProductDB(t)
	plan, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sawErr error
	for tup, err := range UnionTuples(ctx, []*Plan{plan}, ExecOptions{}) {
		if err != nil {
			sawErr = err
			if tup != nil {
				t.Error("error pair carried a tuple")
			}
		}
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Errorf("iterator error = %v, want context.Canceled", sawErr)
	}
}

// TestStreamUnionDedupAndLimit shares one dedup set across branches:
// two identical branches yield each tuple once, and the limit counts
// distinct tuples across the whole union.
func TestStreamUnionDedupAndLimit(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New(relation.NewSchema("r", relation.Attr("a")))
	for i := 0; i < 10; i++ {
		r.MustInsert(relation.SV(fmt.Sprintf("x%d", i)))
	}
	db.Put(r)
	mk := func(src string) *Plan {
		p, err := Compile(db, MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	plans := []*Plan{mk("q(A) :- r(A)"), mk("q(B) :- r(B)")}

	var all []relation.Tuple
	if err := StreamUnionOpts(context.Background(), plans, ExecOptions{}, func(tup relation.Tuple) bool {
		all = append(all, tup)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(all) != 10 {
		t.Fatalf("union yielded %d tuples, want 10 (deduplicated)", len(all))
	}

	var limited []relation.Tuple
	if err := StreamUnionOpts(context.Background(), plans, ExecOptions{Limit: 4},
		func(tup relation.Tuple) bool {
			limited = append(limited, tup)
			return true
		}); err != nil {
		t.Fatal(err)
	}
	if len(limited) != 4 {
		t.Fatalf("limited union yielded %d tuples, want 4", len(limited))
	}
	if len(tupleSet(limited)) != 4 {
		t.Fatal("limited union yielded duplicates")
	}
}

// TestMaterializeUnionLimitSubset locks the Exec/StreamOpts agreement at the
// union level: the Limit result is a subset of the full union.
func TestMaterializeUnionLimitSubset(t *testing.T) {
	db, q := crossProductDB(t)
	plan, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ExecUnion([]*Plan{plan})
	if err != nil {
		t.Fatal(err)
	}
	limited, err := MaterializeUnion(context.Background(), []*Plan{plan}, ExecOptions{Limit: 7})
	if err != nil {
		t.Fatal(err)
	}
	if limited.Len() != 7 {
		t.Fatalf("limited len = %d, want 7", limited.Len())
	}
	fullSet := tupleSet(full.Rows())
	for _, row := range limited.Rows() {
		if !fullSet[row.Key()] {
			t.Fatalf("limited tuple %v not in full answer", row)
		}
	}
}

// TestUnionSignedZero: a union whose branches read +0 and -0 from two
// relations dedups them through the output encoder, which compares
// with ==: +0 == -0, so the union answers {0, 1.5}, two answers, not
// three, streamed and materialized alike.
func TestUnionSignedZero(t *testing.T) {
	db := relation.NewDatabase()
	for name, zero := range map[string]float64{"fpos": 0, "fneg": math.Copysign(0, -1)} {
		r := relation.New(relation.NewSchema(name, relation.FloatAttr("x")))
		r.MustInsert(relation.FV(zero))
		r.MustInsert(relation.FV(1.5))
		db.Put(r)
	}
	plans := compileAll(t, db, []Query{MustParse("q(X) :- fpos(X)"), MustParse("q(X) :- fneg(X)")})
	var streamed []relation.Tuple
	if err := StreamUnionOpts(context.Background(), plans, ExecOptions{}, func(tup relation.Tuple) bool {
		streamed = append(streamed, tup)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 2 {
		t.Errorf("streamed union yielded %v, want 2 answers", streamed)
	}
	rel, err := MaterializeUnion(context.Background(), plans, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Errorf("materialized union holds %v, want 2 answers", rel.Rows())
	}
}
