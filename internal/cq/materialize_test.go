package cq

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/relation"
)

// mixedKindDB holds r(x int) = {1} and s(x string) = {"a"}, and e(x
// string) with no rows: a union of r and s disagrees on its head
// column's kind, one of r and e only declares a disagreement.
func mixedKindDB(t *testing.T) *relation.Database {
	t.Helper()
	db := relation.NewDatabase()
	r := relation.New(relation.NewSchema("r", relation.IntAttr("x")))
	r.MustInsert(relation.IV(1))
	s := relation.New(relation.NewSchema("s", relation.Attr("x")))
	s.MustInsert(relation.SV("a"))
	db.Put(r)
	db.Put(s)
	db.Put(relation.New(relation.NewSchema("e", relation.Attr("x"))))
	return db
}

// TestUnionHeadKindsOneRule holds a union whose branches disagree on a
// head column's kind to one outcome on every path: the branch that
// differs from the first branch's head schema fails on its first answer
// with the error inserting that answer into the result gives. Streaming
// used to yield both answers while materializing failed. A branch that
// declares another kind but answers nothing fails nothing.
func TestUnionHeadKindsOneRule(t *testing.T) {
	db := mixedKindDB(t)
	ctx := context.Background()
	for _, tc := range []struct {
		union []Query
		want  string
	}{
		{[]Query{MustParse("q(X) :- r(X)"), MustParse("q(X) :- s(X)")},
			"relation q: attribute X expects int, got string"},
		{[]Query{MustParse("q(X) :- s(X)"), MustParse("q(X) :- r(X)")},
			"relation q: attribute X expects string, got int"},
	} {
		plans := compileAll(t, db, tc.union)
		if _, err := MaterializeUnion(ctx, plans, ExecOptions{}); err == nil || err.Error() != tc.want {
			t.Errorf("%v: MaterializeUnion error %v, want %q", tc.union, err, tc.want)
		}
		var got []relation.Tuple
		var streamErr error
		for tup, err := range UnionTuples(ctx, plans, ExecOptions{}) {
			if err != nil {
				streamErr = err
				break
			}
			got = append(got, tup)
		}
		if streamErr == nil || streamErr.Error() != tc.want {
			t.Errorf("%v: UnionTuples yielded %v, error %v; want error %q",
				tc.union, got, streamErr, tc.want)
		}
		if len(got) != 1 {
			t.Errorf("%v: UnionTuples yielded %v before failing, want the first branch's one answer",
				tc.union, got)
		}
	}
	plans := compileAll(t, db, []Query{MustParse("q(X) :- r(X)"), MustParse("q(X) :- e(X)")})
	rel, err := MaterializeUnion(ctx, plans, ExecOptions{})
	if err != nil || rel.Len() != 1 {
		t.Errorf("a declared-only disagreement gave %v, %v; want the one answer", rel, err)
	}
}

// disjointUnion compiles q(X, Y) :- a(X, Y) ∪ q(X, Y) :- b(X, Y) over
// two relations of n/2 rows each with no row in common, so every
// binding is a distinct answer: n answers of arity 2.
func disjointUnion(t *testing.T, n int) []*Plan {
	t.Helper()
	db := relation.NewDatabase()
	for _, name := range []string{"a", "b"} {
		r := relation.New(relation.NewSchema(name, relation.Attr("x"), relation.IntAttr("y")))
		for i := 0; i < n/2; i++ {
			r.MustInsert(relation.SV(fmt.Sprintf("%s%d", name, i)), relation.IV(int64(i)))
		}
		db.Put(r)
	}
	return compileAll(t, db, []Query{MustParse("q(X, Y) :- a(X, Y)"), MustParse("q(X, Y) :- b(X, Y)")})
}

// materializeBytes returns the fewest heap bytes one of several warm
// MaterializeUnion runs allocated — the fewest, because a garbage
// collection may empty the executor pool before any one run.
func materializeBytes(t *testing.T, plans []*Plan, opts ExecOptions, answers int) uint64 {
	t.Helper()
	run := func() {
		rel, err := MaterializeUnion(context.Background(), plans, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != answers {
			t.Fatalf("%d answers, want %d", rel.Len(), answers)
		}
	}
	run() // warm: encodings, code indexes, translation memos
	best := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestMaterializeUnionAllocatesOnce holds what a warm materialization
// costs beyond the join: a union decodes its n distinct answers of
// arity a once, into one slice of tuple headers and one block of
// values — n·(24 + 40a) bytes — plus a fixed cost that does not grow
// with n (it includes rounding each of the two up to whole pages).
// Streaming into the result instead (a slab per 1 024 values, a
// 64-tuple buffer, the row slice regrown by half again) cost 702 KB
// where this bound allows 432 KB.
func TestMaterializeUnionAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	const n, arity, fixed = 4000, 2, 16 << 10
	got := materializeBytes(t, disjointUnion(t, n), ExecOptions{}, n)
	ceiling := uint64(n*(24+40*arity) + fixed)
	t.Logf("%d B for %d answers (ceiling %d)", got, n, ceiling)
	if got > ceiling {
		t.Errorf("MaterializeUnion allocated %d B, over %d", got, ceiling)
	}
}

// skewedUnion compiles warm-join's union: q(P, L) :- fact(K, P),
// dim(K, L) over a 50 000-row Zipf-skewed fact relation and 64 dim
// keys, exactly as workload.SkewedJoin generates them at seed 42 (that
// package imports this one, so the test cannot call it), beside the
// same join over an empty local fact relation.
func skewedUnion(t *testing.T) []*Plan {
	t.Helper()
	const factRows, dimKeys = 50000, 64
	rnd := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rnd, 1.2, 1, dimKeys-1)
	fact := relation.New(relation.NewSchema("fact", relation.Attr("key"), relation.Attr("payload")))
	for i := 0; i < factRows; i++ {
		fact.MustInsert(relation.SV(fmt.Sprintf("k%d", zipf.Uint64())), relation.SV(fmt.Sprintf("p%d", i%97)))
	}
	dim := relation.New(relation.NewSchema("dim", relation.Attr("key"), relation.Attr("label")))
	for k := 0; k < dimKeys; k++ {
		dim.MustInsert(relation.SV(fmt.Sprintf("k%d", k)), relation.SV(fmt.Sprintf("l%d", k%7)))
	}
	db := relation.NewDatabase()
	db.Put(fact)
	db.Put(dim)
	db.Put(relation.New(relation.NewSchema("home", relation.Attr("key"), relation.Attr("payload"))))
	return compileAll(t, db, []Query{
		MustParse("q(P, L) :- home(K, P), dim(K, L)"),
		MustParse("q(P, L) :- fact(K, P), dim(K, L)"),
	})
}

// TestUnionAllocatesPerAnswer holds warm-join's union, at default
// options and whatever GOMAXPROCS the test runs with, to the per-answer
// formula of TestMaterializeUnionAllocatesOnce: its ≈50 000 bindings
// yield 679 distinct answers in n·(24 + 40a) bytes plus the fixed
// 16 KiB, 87 000 B.
func TestUnionAllocatesPerAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	const n, arity, fixed = 679, 2, 16 << 10
	got := materializeBytes(t, skewedUnion(t), ExecOptions{}, n)
	ceiling := uint64(n*(24+40*arity) + fixed)
	t.Logf("%d B for %d answers (ceiling %d)", got, n, ceiling)
	if got > ceiling {
		t.Errorf("MaterializeUnion allocated %d B, over %d", got, ceiling)
	}
}
