package cq

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/relation"
)

// This file is the batch kernel's differential harness: the columnar
// path, the tuple-at-a-time reference path (ForceTupleAtATime), and the
// map-bindings interpreter (EvalReference) are held to byte-identical
// sorted wire encodings over randomized unions, and the dictionary's
// lazy snapshot clones are raced against concurrent base-relation
// growth. Run with -race.

// sortedWire renders an answer set as the concatenation of each tuple's
// wire encoding in sorted order — a canonical form independent of
// production order, so executions that emit in different orders still
// compare byte-for-byte.
func sortedWire(rows []relation.Tuple) []byte {
	keys := make([][]byte, len(rows))
	for i, t := range rows {
		keys[i] = relation.EncodeTupleBatch([]relation.Tuple{t})
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	var out []byte
	for _, k := range keys {
		out = append(out, k...)
	}
	return out
}

// randomBatchDB builds a database of small binary relations over a
// narrow value domain, so random joins actually match rows.
func randomBatchDB(rng *rand.Rand, nRels int) *relation.Database {
	db := relation.NewDatabase()
	for i := 0; i < nRels; i++ {
		r := relation.New(relation.Schema{
			Name:  fmt.Sprintf("r%d", i),
			Attrs: []relation.Attribute{relation.Attr("a"), relation.Attr("b")},
		})
		for n := rng.Intn(30); n > 0; n-- {
			t := relation.Tuple{
				relation.SV(fmt.Sprintf("v%d", rng.Intn(8))),
				relation.SV(fmt.Sprintf("v%d", rng.Intn(8))),
			}
			if err := r.Insert(t); err != nil {
				panic(err)
			}
		}
		db.Put(r)
	}
	return db
}

// randomBatchQuery generates a safe conjunctive query with a 2-variable
// head over the r0..r(nRels-1) relations.
func randomBatchQuery(rng *rand.Rand, nRels int) Query {
	vars := []string{"X", "Y", "Z", "W"}
	for {
		nAtoms := 1 + rng.Intn(3)
		bound := map[string]bool{}
		body := ""
		for i := 0; i < nAtoms; i++ {
			if i > 0 {
				body += ", "
			}
			args := make([]string, 2)
			for j := range args {
				if rng.Intn(10) < 7 {
					v := vars[rng.Intn(len(vars))]
					args[j] = v
					bound[v] = true
				} else {
					args[j] = fmt.Sprintf("'v%d'", rng.Intn(8))
				}
			}
			body += fmt.Sprintf("r%d(%s, %s)", rng.Intn(nRels), args[0], args[1])
		}
		var free []string
		for _, v := range vars {
			if bound[v] {
				free = append(free, v)
			}
		}
		if len(free) < 2 {
			continue
		}
		h1 := free[rng.Intn(len(free))]
		h2 := free[rng.Intn(len(free))]
		return MustParse(fmt.Sprintf("q(%s, %s) :- %s", h1, h2, body))
	}
}

// referenceUnionWire evaluates the union on the map-bindings interpreter
// and returns the deduplicated sorted wire form plus the distinct count.
func referenceUnionWire(t *testing.T, db *relation.Database, queries []Query) ([]byte, int) {
	t.Helper()
	seen := map[string]relation.Tuple{}
	for _, q := range queries {
		r, err := EvalReference(db, q)
		if err != nil {
			t.Fatalf("EvalReference(%s): %v", q, err)
		}
		for _, row := range r.Rows() {
			seen[row.Key()] = row
		}
	}
	rows := make([]relation.Tuple, 0, len(seen))
	for _, row := range seen {
		rows = append(rows, row)
	}
	return sortedWire(rows), len(rows)
}

func compileAll(t *testing.T, db *relation.Database, queries []Query) []*Plan {
	t.Helper()
	plans := make([]*Plan, len(queries))
	for i, q := range queries {
		p, err := Compile(db, q)
		if err != nil {
			t.Fatalf("Compile(%s): %v", q, err)
		}
		plans[i] = p
	}
	return plans
}

func runUnionWire(t *testing.T, plans []*Plan, opts ExecOptions) []byte {
	t.Helper()
	r, err := MaterializeUnion(context.Background(), plans, opts)
	if err != nil {
		t.Fatalf("MaterializeUnion: %v", err)
	}
	return sortedWire(r.Rows())
}

// TestBatchDifferentialRandom holds the batch kernel, the
// tuple-at-a-time path, and EvalReference to identical answer sets
// (byte-identical sorted wire encodings) over randomized unions, in
// sequential and parallel execution.
func TestBatchDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var kernels KernelCounts
	for trial := 0; trial < 120; trial++ {
		const nRels = 3
		db := randomBatchDB(rng, nRels)
		queries := make([]Query, 1+rng.Intn(4))
		for i := range queries {
			queries[i] = randomBatchQuery(rng, nRels)
		}
		want, _ := referenceUnionWire(t, db, queries)
		plans := compileAll(t, db, queries)
		got := runUnionWire(t, plans, ExecOptions{Kernels: &kernels})
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: batch != reference for %v", trial, queries)
		}
		tup := runUnionWire(t, plans, ExecOptions{ForceTupleAtATime: true})
		if !bytes.Equal(tup, want) {
			t.Fatalf("trial %d: tuple-at-a-time != reference for %v", trial, queries)
		}
		par := runUnionWire(t, plans, ExecOptions{Parallelism: 4})
		if !bytes.Equal(par, want) {
			t.Fatalf("trial %d: parallel != reference for %v", trial, queries)
		}
	}
	if kernels.Batch() == 0 {
		t.Fatal("no branch ever rode the batch kernel — the differential never exercised it")
	}
}

// TestBatchDifferentialLimits checks that limited executions yield
// exactly min(Limit, |answers|) distinct tuples, each drawn from the
// reference answer set, on both kernels and in parallel mode.
func TestBatchDifferentialLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		const nRels = 3
		db := randomBatchDB(rng, nRels)
		queries := make([]Query, 1+rng.Intn(3))
		for i := range queries {
			queries[i] = randomBatchQuery(rng, nRels)
		}
		_, total := referenceUnionWire(t, db, queries)
		wantSet := map[string]bool{}
		for _, q := range queries {
			r, err := EvalReference(db, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range r.Rows() {
				wantSet[row.Key()] = true
			}
		}
		plans := compileAll(t, db, queries)
		for _, limit := range []int{1, total/2 + 1, total + 5} {
			for _, opts := range []ExecOptions{
				{Limit: limit},
				{Limit: limit, ForceTupleAtATime: true},
				{Limit: limit, Parallelism: 4},
			} {
				r, err := MaterializeUnion(context.Background(), plans, opts)
				if err != nil {
					t.Fatalf("limit %d: %v", limit, err)
				}
				want := limit
				if total < want {
					want = total
				}
				if r.Len() != want {
					t.Fatalf("trial %d limit %d opts %+v: got %d tuples, want %d",
						trial, limit, opts, r.Len(), want)
				}
				for _, row := range r.Rows() {
					if !wantSet[row.Key()] {
						t.Fatalf("limited run yielded %v, not a reference answer", row)
					}
				}
			}
		}
	}
}

// TestBatchMixedEncodedFallback joins an encoded relation with a
// result-style relation that never maintains a dictionary encoding: the
// branch over the unencoded relation must fall back tuple-at-a-time
// while the eligible branch rides the kernel, with identical answers.
func TestBatchMixedEncodedFallback(t *testing.T) {
	db := relation.NewDatabase()
	enc := relation.New(relation.Schema{
		Name:  "enc",
		Attrs: []relation.Attribute{relation.Attr("a"), relation.Attr("b")},
	})
	raw := relation.NewResult(relation.Schema{
		Name:  "raw",
		Attrs: []relation.Attribute{relation.Attr("a"), relation.Attr("b")},
	})
	for i := 0; i < 20; i++ {
		a := relation.SV(fmt.Sprintf("v%d", i%5))
		b := relation.SV(fmt.Sprintf("v%d", (i+1)%5))
		if err := enc.Insert(relation.Tuple{a, b}); err != nil {
			t.Fatal(err)
		}
		if err := raw.Insert(relation.Tuple{b, a}); err != nil {
			t.Fatal(err)
		}
	}
	db.Put(enc)
	db.Put(raw)
	queries := []Query{
		MustParse("q(X, Y) :- enc(X, Z), enc(Z, Y)"),
		MustParse("q(X, Y) :- raw(X, Z), raw(Z, Y)"),
	}
	want, _ := referenceUnionWire(t, db, queries)
	plans := compileAll(t, db, queries)
	if !plans[0].BatchEligible() {
		t.Fatal("encoded branch not batch-eligible")
	}
	if plans[1].BatchEligible() {
		t.Fatal("unencoded branch claims batch eligibility")
	}
	var kernels KernelCounts
	got := runUnionWire(t, plans, ExecOptions{Kernels: &kernels})
	if !bytes.Equal(got, want) {
		t.Fatal("mixed-kernel union != reference")
	}
	if kernels.Batch() != 1 || kernels.Fallback() != 1 {
		t.Fatalf("kernels = %d batch / %d fallback, want 1/1",
			kernels.Batch(), kernels.Fallback())
	}
}

// TestBatchCancelMidStream aborts a batched execution two ways — the
// consumer returning false, and context cancellation — and checks the
// error contract for each.
func TestBatchCancelMidStream(t *testing.T) {
	// A join big enough that thousands of candidate rows remain after
	// the first answer, so a cancellation poll is guaranteed to fire.
	edges := relation.New(relation.Schema{
		Name:  "e",
		Attrs: []relation.Attribute{relation.Attr("a"), relation.Attr("b")},
	})
	for i := 0; i < 100; i++ {
		for k := 1; k <= 5; k++ {
			t1 := relation.Tuple{
				relation.SV(fmt.Sprintf("n%d", i)),
				relation.SV(fmt.Sprintf("n%d", (i+k)%100)),
			}
			if err := edges.Insert(t1); err != nil {
				t.Fatal(err)
			}
		}
	}
	db := relation.NewDatabase()
	db.Put(edges)
	q := MustParse("q(X, Y) :- e(X, Z), e(Z, Y)")
	plans := compileAll(t, db, []Query{q})

	yielded := 0
	err := StreamUnionOpts(context.Background(), plans, ExecOptions{}, func(relation.Tuple) bool {
		yielded++
		return yielded < 2
	})
	if err != nil {
		t.Fatalf("consumer stop is not an error, got %v", err)
	}
	if yielded > 2 {
		t.Fatalf("yield kept firing after returning false: %d", yielded)
	}

	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	err = StreamUnionOpts(ctx, plans, ExecOptions{}, func(relation.Tuple) bool {
		n++
		if n == 1 {
			cancel()
		}
		return true
	})
	if n > 0 && err != context.Canceled {
		t.Fatalf("mid-stream cancel returned %v, want context.Canceled", err)
	}
}

// TestDictGrowthRace executes batched queries over snapshots while the
// base relation keeps growing its dictionary, and runs two executors
// over the same shared snapshot — the encode map and packed code
// indexes the snapshots share with the growing base must keep this
// race-detector clean. A second phase takes a snapshot every few
// inserts, so most of them probe the lineage's packed index plus a
// tail of raw codes, and checks each against EvalReference.
func TestDictGrowthRace(t *testing.T) {
	base := relation.New(relation.Schema{
		Name:  "edge",
		Attrs: []relation.Attribute{relation.Attr("a"), relation.Attr("b")},
	})
	for i := 0; i < 64; i++ {
		t1 := relation.Tuple{
			relation.SV(fmt.Sprintf("n%d", i%16)),
			relation.SV(fmt.Sprintf("n%d", (i+1)%16)),
		}
		if err := base.Insert(t1); err != nil {
			t.Fatal(err)
		}
	}
	db := relation.NewDatabase()
	db.Put(base.SnapshotAs("edge"))
	plans := compileAll(t, db, []Query{MustParse("q(X, Y) :- edge(X, Z), edge(Z, Y)")})

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		// Grow the base dictionary with novel values while snapshots
		// execute: the clone shares the pre-snapshot prefix only.
		defer wg.Done()
		for i := 0; i < 512; i++ {
			t1 := relation.Tuple{
				relation.SV(fmt.Sprintf("g%d", i)),
				relation.SV(fmt.Sprintf("g%d", i+1)),
			}
			if err := base.Insert(t1); err != nil {
				panic(err)
			}
		}
	}()
	for g := 0; g < 2; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				if _, err := MaterializeUnion(context.Background(), plans, ExecOptions{}); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()

	// The snapshot's answers must be unaffected by post-snapshot growth.
	queries := []Query{MustParse("q(X, Y) :- edge(X, Z), edge(Z, Y)")}
	want, _ := referenceUnionWire(t, db, queries)
	got := runUnionWire(t, plans, ExecOptions{})
	if !bytes.Equal(got, want) {
		t.Fatal("snapshot answers drifted under concurrent base growth")
	}

	// Tail-scan phase: this goroutine keeps growing the base and
	// snapshots it every three rows; two executors run each snapshot
	// while the growth continues. Every other snapshot has its probe
	// index resolved here, in order, so it deterministically finds the
	// lineage's index a few rows behind it; the rest resolve theirs
	// concurrently from the executors.
	type tailRun struct {
		db  *relation.Database
		got [2][]byte
		err [2]error
	}
	var runs []*tailRun
	for round := 0; round < 24; round++ {
		for i := 0; i < 3; i++ {
			k := round*3 + i
			t1 := relation.Tuple{
				relation.SV(fmt.Sprintf("n%d", k%16)), // joins the original nodes
				relation.SV(fmt.Sprintf("t%d", k/2)),  // half novel, half repeated
			}
			if err := base.Insert(t1); err != nil {
				t.Fatal(err)
			}
		}
		snap := base.SnapshotAs("edge")
		if round%2 == 0 {
			snap.EnsureCodeIndex(0)
			snap.EnsureCodeIndex(1)
		}
		r := &tailRun{db: relation.NewDatabase()}
		r.db.Put(snap)
		runs = append(runs, r)
		plans := compileAll(t, r.db, queries)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rel, err := MaterializeUnion(context.Background(), plans, ExecOptions{})
				if err != nil {
					r.err[g] = err
					return
				}
				r.got[g] = sortedWire(rel.Rows())
			}(g)
		}
	}
	wg.Wait()
	tails := 0
	for i, r := range runs {
		want, _ := referenceUnionWire(t, r.db, queries)
		for g := 0; g < 2; g++ {
			if r.err[g] != nil {
				t.Fatalf("snapshot %d executor %d: %v", i, g, r.err[g])
			}
			if !bytes.Equal(r.got[g], want) {
				t.Errorf("snapshot %d executor %d: answers differ from EvalReference", i, g)
			}
		}
		for col := 0; col < 2; col++ {
			if _, tail := r.db.Get("edge").EnsureCodeIndex(col).Tail(); len(tail) > 0 {
				tails++
			}
		}
	}
	if tails == 0 {
		t.Error("no snapshot probed a packed index with a tail: the tail-scan path went untested")
	}
}
