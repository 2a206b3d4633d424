package cq

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/relation"
)

// randomUnion generates one randomized database plus a union of 2–5
// safe conjunctive queries sharing head arity — the shape a
// reformulated PDMS query has (one branch per rewriting, same head).
func randomUnion(rnd *rand.Rand) (*relation.Database, []Query, bool) {
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
		rows := rnd.Intn(60)
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
	headArity := 1 + rnd.Intn(3)
	nBranches := 2 + rnd.Intn(4)
	var union []Query
	for b := 0; b < nBranches; b++ {
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
			return db, nil, false
		}
		for i := 0; i < headArity; i++ {
			q.HeadVars = append(q.HeadVars, bv[rnd.Intn(len(bv))])
		}
		union = append(union, q)
	}
	return db, union, true
}

// compileUnion compiles every branch, failing the test on error.
func compileUnion(t *testing.T, db *relation.Database, union []Query) []*Plan {
	t.Helper()
	plans := make([]*Plan, len(union))
	for i, q := range union {
		p, err := Compile(db, q)
		if err != nil {
			t.Fatalf("compile %s: %v", q, err)
		}
		plans[i] = p
	}
	return plans
}

// drainUnion runs StreamUnionOpts and collects the yielded tuples.
func drainUnion(t *testing.T, plans []*Plan, opts ExecOptions) []relation.Tuple {
	t.Helper()
	rows, err := drainUnionErr(plans, opts)
	if err != nil {
		t.Fatalf("StreamUnionOpts(%+v): %v", opts, err)
	}
	return rows
}

// drainUnionErr is drainUnion returning the union's error.
func drainUnionErr(plans []*Plan, opts ExecOptions) ([]relation.Tuple, error) {
	var rows []relation.Tuple
	err := StreamUnionOpts(context.Background(), plans, opts,
		func(tup relation.Tuple) bool {
			rows = append(rows, tup)
			return true
		})
	return rows, err
}

// TestParallelUnionMatchesSequentialRandomized is the differential
// harness for the tentpole: across a randomized corpus of unions, the
// parallel executor at P=2,4,8 must produce exactly the sequential
// path's answer set — no duplicates, no drops — and a random Limit
// must deliver exactly min(Limit, |answers|) distinct members of the
// full answer under parallel dedup. Run under -race this also vets the
// sharded-set and fan-in synchronization. The generator types head
// variables freely, so some unions have a branch that answers a head
// column in another kind than the first branch declares; such a union
// fails on every path, and only well-typed ones count as trials.
func TestParallelUnionMatchesSequentialRandomized(t *testing.T) {
	rnd := rand.New(rand.NewSource(47))
	trials := 0
	for trials < 150 {
		db, union, ok := randomUnion(rnd)
		if !ok {
			continue
		}
		plans := compileUnion(t, db, union)
		if _, err := drainUnionErr(plans, ExecOptions{Parallelism: 1}); err != nil {
			for _, par := range []int{2, 4, 8} {
				if _, perr := drainUnionErr(plans, ExecOptions{Parallelism: par}); perr == nil {
					t.Fatalf("sequential union failed (%v), P=%d succeeded", err, par)
				}
			}
			continue
		}
		trials++
		seq := drainUnion(t, plans, ExecOptions{Parallelism: 1})
		seqSet := tupleSet(seq)
		if len(seqSet) != len(seq) {
			t.Fatalf("sequential union yielded duplicates")
		}
		for _, par := range []int{2, 4, 8} {
			got := drainUnion(t, plans, ExecOptions{Parallelism: par})
			gotSet := tupleSet(got)
			if len(gotSet) != len(got) {
				t.Fatalf("P=%d yielded duplicates (%d tuples, %d distinct)",
					par, len(got), len(gotSet))
			}
			if len(gotSet) != len(seqSet) {
				t.Fatalf("P=%d answer count %d != sequential %d",
					par, len(gotSet), len(seqSet))
			}
			for k := range seqSet {
				if !gotSet[k] {
					t.Fatalf("P=%d missing tuple %q", par, k)
				}
			}
		}
		if len(seq) == 0 {
			continue
		}
		limit := 1 + rnd.Intn(len(seq)+2) // sometimes exceeds |answers|
		want := limit
		if want > len(seq) {
			want = len(seq)
		}
		limited := drainUnion(t, plans, ExecOptions{Parallelism: 4, Limit: limit})
		if len(limited) != want {
			t.Fatalf("P=4 limit %d yielded %d tuples, want %d (full=%d)",
				limit, len(limited), want, len(seq))
		}
		limSet := tupleSet(limited)
		if len(limSet) != len(limited) {
			t.Fatalf("P=4 limited union yielded duplicates")
		}
		for k := range limSet {
			if !seqSet[k] {
				t.Fatalf("P=4 limited tuple %q not in full answer", k)
			}
		}
	}
}

// unionCrossProductDB builds branches over a 300×300 cross product —
// enough rows that many answers are in flight when a limit or
// cancellation fires mid-union.
func unionCrossProductDB(t *testing.T, branches int) []*Plan {
	t.Helper()
	db := relation.NewDatabase()
	a := relation.New(relation.NewSchema("a", relation.Attr("x")))
	b := relation.New(relation.NewSchema("b", relation.Attr("y")))
	for i := 0; i < 300; i++ {
		a.MustInsert(relation.SV(fmt.Sprintf("a%d", i)))
		b.MustInsert(relation.SV(fmt.Sprintf("b%d", i)))
	}
	db.Put(a)
	db.Put(b)
	plans := make([]*Plan, branches)
	for i := range plans {
		p, err := Compile(db, MustParse("q(X, Y) :- a(X), b(Y)"))
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = p
	}
	return plans
}

// waitGoroutines waits for the goroutine count to drop back to the
// baseline, tolerating runtime bookkeeping goroutines, and fails the
// test if workers are still alive after the deadline.
func waitGoroutines(t *testing.T, base int, when string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%s: %d goroutines alive, baseline %d — worker leak", when, n, base)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestParallelUnionLimitExact: identical branches racing on one cross
// product must still deliver exactly Limit distinct tuples — the
// shared claim counter makes over- and under-delivery impossible even
// when several workers dedup and claim concurrently.
func TestParallelUnionLimitExact(t *testing.T) {
	plans := unionCrossProductDB(t, 6)
	base := runtime.NumGoroutine()
	for _, limit := range []int{1, 7, 100, 1000} {
		var got []relation.Tuple
		if err := StreamUnionOpts(context.Background(), plans,
			ExecOptions{Parallelism: 8, Limit: limit},
			func(tup relation.Tuple) bool {
				got = append(got, tup)
				return true
			}); err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if len(got) != limit {
			t.Errorf("limit %d delivered %d tuples", limit, len(got))
		}
		if len(tupleSet(got)) != len(got) {
			t.Errorf("limit %d delivered duplicates", limit)
		}
	}
	waitGoroutines(t, base, "after parallel limit runs")
}

// TestParallelUnionCancelDrainsWorkers cancels the context from inside
// yield mid-union: the call must surface ctx.Err() and every worker
// must exit — no goroutine may outlive StreamUnionOpts.
func TestParallelUnionCancelDrainsWorkers(t *testing.T) {
	plans := unionCrossProductDB(t, 6)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	yields := 0
	err := StreamUnionOpts(ctx, plans, ExecOptions{Parallelism: 8},
		func(relation.Tuple) bool {
			yields++
			if yields == 10 {
				cancel()
			}
			return true
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// 90000 distinct answers exist; cancellation must stop the union
	// long before exhaustion (workers poll every ctxCheckInterval rows,
	// plus whatever was already buffered in the fan-in channel).
	if yields > 10+8*ctxCheckInterval {
		t.Errorf("yields after cancel = %d, want prompt stop", yields)
	}
	waitGoroutines(t, base, "after cancel")
}

// TestParallelUnionConsumerBreakDrainsWorkers: yield returning false is
// a consumer break — no error — and the pool must drain.
func TestParallelUnionConsumerBreakDrainsWorkers(t *testing.T) {
	plans := unionCrossProductDB(t, 6)
	base := runtime.NumGoroutine()
	yields := 0
	err := StreamUnionOpts(context.Background(), plans, ExecOptions{Parallelism: 8},
		func(relation.Tuple) bool {
			yields++
			return yields < 5
		})
	if err != nil {
		t.Fatalf("consumer break surfaced error: %v", err)
	}
	waitGoroutines(t, base, "after consumer break")
}

// TestParallelUnionYieldPanicDrainsWorkers: a panic in the consumer's
// yield must propagate — but only after the pool is cancelled and
// drained, so even a buggy consumer cannot leak workers parked on
// claimed-slot sends.
func TestParallelUnionYieldPanicDrainsWorkers(t *testing.T) {
	plans := unionCrossProductDB(t, 6)
	base := runtime.NumGoroutine()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("consumer panic did not propagate")
			}
		}()
		_ = StreamUnionOpts(context.Background(), plans, ExecOptions{Parallelism: 8},
			func(relation.Tuple) bool { panic("consumer bug") })
	}()
	waitGoroutines(t, base, "after yield panic")
}

// TestParallelUnionPreCancelled: an already-dead context fails
// deterministically without yielding, and leaves no workers behind.
func TestParallelUnionPreCancelled(t *testing.T) {
	plans := unionCrossProductDB(t, 4)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := StreamUnionOpts(ctx, plans, ExecOptions{Parallelism: 4},
		func(relation.Tuple) bool {
			t.Error("yield on a dead context")
			return true
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitGoroutines(t, base, "after pre-cancelled run")
}

// TestEffectiveParallelismHeuristic pins the auto-mode policy: explicit
// settings win, single-branch unions never parallelize, and auto mode
// only fans out when the union is wide and heavy enough.
func TestEffectiveParallelismHeuristic(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2")
	}
	heavy := unionCrossProductDB(t, 4) // 4 branches × 300-row probe atom
	light := unionCrossProductDB(t, 4)[:1]
	small := func() []*Plan { // wide but tiny: below parallelMinCost
		db := relation.NewDatabase()
		r := relation.New(relation.NewSchema("r", relation.Attr("x")))
		r.MustInsert(relation.SV("only"))
		db.Put(r)
		var plans []*Plan
		for i := 0; i < 8; i++ {
			p, err := Compile(db, MustParse("q(X) :- r(X)"))
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, p)
		}
		return plans
	}()
	if got := effectiveParallelism(heavy, ExecOptions{}); got < 2 {
		t.Errorf("auto on heavy union = %d, want parallel", got)
	}
	if got := effectiveParallelism(heavy, ExecOptions{Parallelism: 1}); got != 1 {
		t.Errorf("explicit 1 = %d, want sequential", got)
	}
	if got := effectiveParallelism(heavy, ExecOptions{Parallelism: 3}); got != 3 {
		t.Errorf("explicit 3 = %d", got)
	}
	if got := effectiveParallelism(heavy, ExecOptions{Parallelism: 64}); got != len(heavy) {
		t.Errorf("explicit 64 = %d, want capped at %d branches", got, len(heavy))
	}
	if got := effectiveParallelism(light, ExecOptions{}); got != 1 {
		t.Errorf("auto on single branch = %d, want 1", got)
	}
	if got := effectiveParallelism(small, ExecOptions{}); got != 1 {
		t.Errorf("auto on tiny union = %d, want 1 (below parallelMinCost)", got)
	}
	if got := effectiveParallelism(small, ExecOptions{Parallelism: 4}); got != 4 {
		t.Errorf("explicit 4 on tiny union = %d, want forced parallel", got)
	}
	// Small limits stay sequential in auto mode even on heavy unions —
	// the existence-query fast path must not pay pool spin-up.
	if got := effectiveParallelism(heavy, ExecOptions{Limit: 1}); got != 1 {
		t.Errorf("auto with Limit=1 = %d, want 1", got)
	}
	if got := effectiveParallelism(heavy, ExecOptions{Limit: parallelBatch}); got != 1 {
		t.Errorf("auto with Limit=%d = %d, want 1", parallelBatch, got)
	}
	if got := effectiveParallelism(heavy, ExecOptions{Limit: parallelBatch + 1}); got < 2 {
		t.Errorf("auto with Limit=%d = %d, want parallel", parallelBatch+1, got)
	}
	if got := effectiveParallelism(heavy, ExecOptions{Limit: 1, Parallelism: 4}); got != 4 {
		t.Errorf("explicit 4 with Limit=1 = %d, want forced parallel", got)
	}
}

// TestParallelMaterializeUnion exercises the materializing wrapper over
// the parallel path — the pdms.Answer route — against the sequential
// result.
func TestParallelMaterializeUnion(t *testing.T) {
	plans := unionCrossProductDB(t, 3)
	seq, err := MaterializeUnion(context.Background(), plans, ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := MaterializeUnion(context.Background(), plans, ExecOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Equal(par) {
		t.Fatalf("parallel materialization differs: seq=%d par=%d tuples",
			seq.Len(), par.Len())
	}
}

// TestParallelUnionTuplesEarlyBreak ranges over the iterator adapter on
// the parallel path and breaks early — the iter.Pull-style consumer
// the pdms Cursor uses — checking the pool drains.
func TestParallelUnionTuplesEarlyBreak(t *testing.T) {
	plans := unionCrossProductDB(t, 4)
	base := runtime.NumGoroutine()
	got := 0
	for tup, err := range UnionTuples(context.Background(), plans, ExecOptions{Parallelism: 4}) {
		if err != nil {
			t.Fatalf("unexpected error pair: %v", err)
		}
		if tup == nil {
			t.Fatal("nil tuple with nil error")
		}
		got++
		if got == 5 {
			break
		}
	}
	if got != 5 {
		t.Errorf("iterated %d tuples, want 5", got)
	}
	waitGoroutines(t, base, "after iterator break")
}

// TestParallelUnionSignedZero: a union whose branches read +0 and -0
// from two relations must answer alike sequentially (code-mode dedup
// through the output encoder, which compares with ==) and in parallel
// (tuple-mode dedup through the sharded set, which hashes): +0 == -0,
// so each path yields the two answers {0, 1.5}, not three.
func TestParallelUnionSignedZero(t *testing.T) {
	db := relation.NewDatabase()
	for name, zero := range map[string]float64{"fpos": 0, "fneg": math.Copysign(0, -1)} {
		r := relation.New(relation.NewSchema(name, relation.FloatAttr("x")))
		r.MustInsert(relation.FV(zero))
		r.MustInsert(relation.FV(1.5))
		db.Put(r)
	}
	plans := compileUnion(t, db, []Query{MustParse("q(X) :- fpos(X)"), MustParse("q(X) :- fneg(X)")})
	seq := relation.NewTupleSet(2)
	for _, tup := range drainUnion(t, plans, ExecOptions{Parallelism: 1}) {
		seq.Add(tup)
	}
	if seq.Len() != 2 {
		t.Fatalf("sequential union: %d distinct answers, want 2", seq.Len())
	}
	for _, par := range []int{2, 4} {
		got := drainUnion(t, plans, ExecOptions{Parallelism: par})
		if len(got) != seq.Len() {
			t.Fatalf("P=%d yielded %v, sequential yields %d answers", par, got, seq.Len())
		}
		for _, tup := range got {
			if !seq.Contains(tup) {
				t.Fatalf("P=%d answer %v not in the sequential answer", par, tup)
			}
		}
	}
}
