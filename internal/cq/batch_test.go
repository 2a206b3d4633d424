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

// This file is the batch kernel's differential harness: the kernel and
// the map-bindings interpreter (EvalReference, the oracle) are held to
// byte-identical sorted wire encodings over randomized unions, over
// relations that build their encoding on first use, and over zero-atom
// plans; the dictionary's lazy snapshot clones are raced against
// concurrent base-relation growth. Run with -race.

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

// TestBatchDifferentialRandom holds the batch kernel to EvalReference's
// answer sets (byte-identical sorted wire encodings) over randomized
// unions, in sequential and parallel execution.
func TestBatchDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		const nRels = 3
		db := randomBatchDB(rng, nRels)
		queries := make([]Query, 1+rng.Intn(4))
		for i := range queries {
			queries[i] = randomBatchQuery(rng, nRels)
		}
		want, _ := referenceUnionWire(t, db, queries)
		plans := compileAll(t, db, queries)
		got := runUnionWire(t, plans, ExecOptions{})
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: batch != reference for %v", trial, queries)
		}
		par := runUnionWire(t, plans, ExecOptions{Parallelism: 4})
		if !bytes.Equal(par, want) {
			t.Fatalf("trial %d: parallel != reference for %v", trial, queries)
		}
	}
}

// TestBatchDifferentialLimits checks that limited executions yield
// exactly min(Limit, |answers|) distinct tuples, each drawn from the
// reference answer set, sequentially and in parallel mode.
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

// unencodedDB builds relations that carry no dictionary encoding until
// a plan first joins against them — NewResult relations, one filled
// row by row and two in one batch each — beside an ordinary encoded
// one, all over one small value domain.
func unencodedDB(t *testing.T) *relation.Database {
	t.Helper()
	ab := []relation.Attribute{relation.Attr("a"), relation.Attr("b")}
	enc := relation.New(relation.Schema{Name: "enc", Attrs: ab})
	res := relation.NewResult(relation.Schema{Name: "res", Attrs: ab})
	proj := relation.NewResult(relation.Schema{Name: "proj",
		Attrs: []relation.Attribute{relation.Attr("b"), relation.Attr("a")}})
	sel := relation.NewResult(relation.Schema{Name: "sel", Attrs: ab})
	var projRows, selRows []relation.Tuple
	for i := 0; i < 40; i++ {
		a := relation.SV(fmt.Sprintf("v%d", i%5))
		b := relation.SV(fmt.Sprintf("v%d", (i*3+1)%7))
		for _, err := range []error{
			enc.Insert(relation.Tuple{a, b}),
			res.Insert(relation.Tuple{b, a}),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		projRows = append(projRows, relation.Tuple{b, a})
		if a != relation.SV("v0") {
			selRows = append(selRows, relation.Tuple{a, b})
		}
	}
	for _, err := range []error{proj.InsertBatch(projRows), sel.InsertBatch(selRows)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	db := relation.NewDatabase()
	for _, r := range []*relation.Relation{enc, res, proj, sel} {
		db.Put(r)
	}
	return db
}

// entryPointWires runs the union through every execution entry point of
// the package and returns each one's sorted wire form, keyed by name.
func entryPointWires(t *testing.T, plans []*Plan) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	if len(plans) == 1 {
		r, err := plans[0].Exec()
		if err != nil {
			t.Fatalf("Exec: %v", err)
		}
		out["Exec"] = sortedWire(r.Rows())
	}
	for _, par := range []int{1, 4} {
		var rows []relation.Tuple
		err := StreamUnionOpts(context.Background(), plans, ExecOptions{Parallelism: par},
			func(row relation.Tuple) bool { rows = append(rows, row); return true })
		if err != nil {
			t.Fatalf("StreamUnionOpts par=%d: %v", par, err)
		}
		out[fmt.Sprintf("StreamUnionOpts/par=%d", par)] = sortedWire(rows)
	}
	out["MaterializeUnion"] = runUnionWire(t, plans, ExecOptions{})
	return out
}

// TestEncodeOnDemandDifferential joins against relations that were not
// maintaining an encoding — NewResult relations, alone and mixed with
// an encoded relation — and holds every entry point to
// EvalReference. An Insert after the first use must keep the encoding
// current, so the same plans see the new row.
func TestEncodeOnDemandDifferential(t *testing.T) {
	db := unencodedDB(t)
	unions := [][]Query{
		{MustParse("q(X, Y) :- res(X, Z), res(Z, Y)")},
		{MustParse("q(X, Y) :- proj(X, Z), proj(Z, Y)")},
		{MustParse("q(X, Y) :- sel(X, Z), sel(Z, Y)")},
		{MustParse("q(X, Y) :- enc(X, Z), res(Z, Y)")},
		{MustParse("q(X, Y) :- res(X, 'v1'), sel(Y, X)")},
		{
			MustParse("q(X, Y) :- enc(X, Z), enc(Z, Y)"),
			MustParse("q(X, Y) :- res(X, Z), proj(Z, Y)"),
			MustParse("q(X, Y) :- sel(X, Y), res(Y, X)"),
		},
	}
	check := func(stage string) {
		for _, queries := range unions {
			want, n := referenceUnionWire(t, db, queries)
			if n == 0 {
				t.Fatalf("%s: %v has no answers; the differential proves nothing", stage, queries)
			}
			for name, got := range entryPointWires(t, compileAll(t, db, queries)) {
				if !bytes.Equal(got, want) {
					t.Errorf("%s: %s != EvalReference for %v", stage, name, queries)
				}
			}
		}
	}
	check("first use")
	for _, name := range []string{"res", "proj", "sel"} {
		r := db.Get(name)
		d := r.Encoding()
		if err := r.Insert(relation.Tuple{relation.SV("v1"), relation.SV("fresh")}); err != nil {
			t.Fatal(err)
		}
		if err := r.Insert(relation.Tuple{relation.SV("fresh"), relation.SV("v2")}); err != nil {
			t.Fatal(err)
		}
		if got := r.Encoding(); got != d || got.Len() != r.Len() {
			t.Fatalf("%s: Insert after first use did not keep the encoding current (same dict %v, %d of %d rows)",
				name, got == d, got.Len(), r.Len())
		}
	}
	check("after insert")
}

// TestEncodeOnDemandConcurrentFirstUse has many goroutines make the first
// use of one shared unencoded relation at once: the check-and-build is
// atomic, so all of them must join against one dictionary and agree
// with EvalReference. Run with -race.
func TestEncodeOnDemandConcurrentFirstUse(t *testing.T) {
	db := unencodedDB(t)
	queries := []Query{
		MustParse("q(X, Y) :- res(X, Z), res(Z, Y)"),
		MustParse("q(X, Y) :- proj(X, Z), sel(Z, Y)"),
	}
	want, _ := referenceUnionWire(t, db, queries)
	plans := compileAll(t, db, queries)
	const workers = 12
	var wg sync.WaitGroup
	got := make([][]byte, workers)
	dicts := make([]*relation.Dict, workers)
	start := make(chan struct{})
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			r, err := MaterializeUnion(context.Background(), plans, ExecOptions{Parallelism: 1 + g%2*3})
			if err != nil {
				t.Errorf("worker %d: %v", g, err)
				return
			}
			got[g] = sortedWire(r.Rows())
			dicts[g] = db.Get("res").Encoding()
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range got {
		if !bytes.Equal(got[g], want) {
			t.Errorf("worker %d: answers differ from EvalReference", g)
		}
		if dicts[g] != dicts[0] {
			t.Errorf("worker %d joined against a different dictionary than worker 0", g)
		}
	}
}

// TestBatchEmptyRelationKeepsOneDict pins the empty dictionary to its
// relation: executions probing into an empty relation must see the same
// *Dict every time, or each one mints fresh translation-memo keys in
// the pooled executor's cache.
func TestBatchEmptyRelationKeepsOneDict(t *testing.T) {
	db := unencodedDB(t)
	empty := relation.New(relation.Schema{Name: "empty",
		Attrs: []relation.Attribute{relation.Attr("a"), relation.Attr("b")}})
	db.Put(empty)
	if d := empty.Encoding(); d == nil || d != empty.Encoding() {
		t.Fatal("an empty relation handed out two different dictionaries")
	}
	plans := compileAll(t, db, []Query{MustParse("q(X, W) :- enc(X, Z), empty(Z, W)")})
	be := getBatchExec(2, true)
	defer be.release()
	clear(be.trans) // a pooled executor may arrive with other tests' memos
	memos := -1
	for i := 0; i < 3; i++ {
		err := be.run(context.Background(), plans[0], nil, func(relation.Tuple) bool {
			t.Error("a join against an empty relation yielded an answer")
			return false
		})
		if err != nil {
			t.Fatal(err)
		}
		if memos >= 0 && len(be.trans) != memos {
			t.Fatalf("execution %d grew the memo cache from %d to %d entries", i, memos, len(be.trans))
		}
		memos = len(be.trans)
	}
	if memos == 0 {
		t.Fatal("the plan keyed no memo on the empty relation; the test proves nothing")
	}
}

// TestBatchZeroAtomPlan runs a plan with no body atoms: it has exactly
// one answer, the empty tuple, which the kernel's leaf produces from its
// virtual input row — once per union however many branches repeat it,
// with Limit and cancellation honoured.
func TestBatchZeroAtomPlan(t *testing.T) {
	db := relation.NewDatabase()
	q := NewQuery("q", nil)
	want, n := referenceUnionWire(t, db, []Query{q})
	if n != 1 {
		t.Fatalf("EvalReference gave %d answers for a zero-atom query, want 1", n)
	}
	for _, width := range []int{1, 3} {
		queries := make([]Query, width)
		for i := range queries {
			queries[i] = q
		}
		plans := compileAll(t, db, queries)
		for name, got := range entryPointWires(t, plans) {
			if !bytes.Equal(got, want) {
				t.Errorf("width %d: %s != EvalReference", width, name)
			}
		}
		for _, par := range []int{1, 4} {
			r, err := MaterializeUnion(context.Background(), plans, ExecOptions{Limit: 1, Parallelism: par})
			if err != nil {
				t.Fatalf("width %d par %d Limit 1: %v", width, par, err)
			}
			if r.Len() != 1 {
				t.Errorf("width %d par %d Limit 1: %d answers, want 1", width, par, r.Len())
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			err = StreamUnionOpts(ctx, plans, ExecOptions{Parallelism: par}, func(relation.Tuple) bool {
				t.Errorf("width %d par %d: a cancelled execution yielded", width, par)
				return true
			})
			if err != context.Canceled {
				t.Errorf("width %d par %d: cancelled execution returned %v, want context.Canceled", width, par, err)
			}
		}
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
