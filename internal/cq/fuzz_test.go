package cq

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/relation"
)

// FuzzParseCQ throws arbitrary text at the datalog parser. Parse must
// return a query or an error, never panic, and a query it accepts must
// render (String) to text it accepts again with the same rendering —
// the round trip the experiments' printed rewritings and the examples'
// query literals lean on. The seeds, including every input the fuzzer
// has failed on, are in testdata/fuzz/FuzzParseCQ.
func FuzzParseCQ(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		q, err := Parse(s)
		if err != nil {
			return
		}
		text := q.String()
		q2, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) rendered %q, which does not parse: %v", s, text, err)
		}
		if text2 := q2.String(); text2 != text {
			t.Fatalf("Parse(%q) rendered %q, which re-renders as %q", s, text, text2)
		}
	})
}

// fuzzBytes hands out an input's bytes one at a time, then zeros, so
// every input — the empty one included — decodes to some union.
type fuzzBytes []byte

func (b *fuzzBytes) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// fuzzValue draws one of three values of kind typ: few distinct values,
// so joins match and branches repeat each other's answers. The floats
// include both zeros, which are one value.
func fuzzValue(b *fuzzBytes, typ relation.Type) relation.Value {
	i := b.next(3)
	switch typ {
	case relation.TInt:
		return relation.IV(int64(i))
	case relation.TFloat:
		return relation.FV([]float64{0, math.Copysign(0, -1), 1.5}[i])
	}
	return relation.SV([]string{"a", "b", "c"}[i])
}

// fuzzUnion decodes 2–3 relations of arity ≤ 3 (int, string and float
// columns, up to 11 rows) and a union of 1–4 conjunctive queries over
// them — up to three atoms each, arguments drawn from four variables or
// a constant of the column's kind — with one head arity of 0–2. ok is
// false when a branch has no variable to put in a non-empty head.
func fuzzUnion(data []byte) (db *relation.Database, union []Query, limit int, ok bool) {
	b := fuzzBytes(data)
	db = relation.NewDatabase()
	var schemas []relation.Schema
	for ri, nRels := 0, 2+b.next(2); ri < nRels; ri++ {
		attrs := make([]relation.Attribute, 1+b.next(3))
		for ai := range attrs {
			attrs[ai] = relation.Attribute{Name: fmt.Sprintf("c%d", ai),
				Type: []relation.Type{relation.TInt, relation.TString, relation.TFloat}[b.next(3)]}
		}
		sch := relation.Schema{Name: fmt.Sprintf("r%d", ri), Attrs: attrs}
		rel := relation.New(sch)
		for i, rows := 0, b.next(12); i < rows; i++ {
			tup := make(relation.Tuple, len(attrs))
			for ai, a := range attrs {
				tup[ai] = fuzzValue(&b, a.Type)
			}
			rel.MustInsert(tup...)
		}
		db.Put(rel)
		schemas = append(schemas, sch)
	}
	headArity := b.next(3)
	for bi, nBranches := 0, 1+b.next(4); bi < nBranches; bi++ {
		var body []Atom
		for ai, nAtoms := 0, 1+b.next(3); ai < nAtoms; ai++ {
			sch := schemas[b.next(len(schemas))]
			args := make([]Term, sch.Arity())
			for c := range args {
				if v := b.next(5); v < 4 {
					args[c] = V(string(rune('A' + v)))
				} else {
					args[c] = C(fuzzValue(&b, sch.Attrs[c].Type))
				}
			}
			body = append(body, Atom{Pred: sch.Name, Args: args})
		}
		q := Query{HeadPred: "q", Body: body}
		bv := q.BodyVars()
		if len(bv) == 0 && headArity > 0 {
			return nil, nil, 0, false
		}
		for i := 0; i < headArity; i++ {
			q.HeadVars = append(q.HeadVars, bv[b.next(len(bv))])
		}
		union = append(union, q)
	}
	return db, union, 1 + b.next(8), true
}

// answerSet is a set of tuples under ==, so +0 and -0 are one member:
// tuples bucketed by Tuple.Hash, which hashes == values alike.
type answerSet struct {
	buckets map[uint64][]relation.Tuple
	n       int
}

// add inserts t and reports whether it was absent.
func (s *answerSet) add(t relation.Tuple) bool {
	if s.contains(t) {
		return false
	}
	if s.buckets == nil {
		s.buckets = make(map[uint64][]relation.Tuple)
	}
	h := t.Hash()
	s.buckets[h] = append(s.buckets[h], t)
	s.n++
	return true
}

// contains reports membership.
func (s *answerSet) contains(t relation.Tuple) bool {
	for _, u := range s.buckets[t.Hash()] {
		if u.Equal(t) {
			return true
		}
	}
	return false
}

// FuzzUnionDifferential holds the compiled union to the reference
// evaluator over unions decoded from the input. MaterializeUnion must
// answer, as a set, the union of EvalReference over the branches; its
// result, limited or not, must be a drained UnionTuples, row for row
// and in order; and under a limit k taken from the input it gives
// exactly min(k, |answers|) distinct answers, all in the reference set.
// A union one of whose branches answers a head column in another kind
// than the first branch declares must fail on every path instead. The
// seeds are in testdata/fuzz/FuzzUnionDifferential.
func FuzzUnionDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		db, union, limit, ok := fuzzUnion(data)
		if !ok {
			return
		}
		plans := make([]*Plan, len(union))
		for i, q := range union {
			p, err := Compile(db, q)
			if err != nil {
				t.Fatalf("compile %s: %v", q, err)
			}
			plans[i] = p
		}
		head := plans[0].HeadSchema()
		var ref answerSet
		mistyped := false
		for _, q := range union {
			r, err := EvalReference(db, q)
			if err != nil {
				t.Fatalf("EvalReference %s: %v", q, err)
			}
			for _, row := range r.Rows() {
				ref.add(row)
				mistyped = mistyped || head.Compatible(row) != nil
			}
		}
		ctx := context.Background()
		drain := func(opts ExecOptions) ([]relation.Tuple, error) {
			var rows []relation.Tuple
			for tup, err := range UnionTuples(ctx, plans, opts) {
				if err != nil {
					return rows, err
				}
				rows = append(rows, tup)
			}
			return rows, nil
		}
		if mistyped {
			if _, err := MaterializeUnion(ctx, plans, ExecOptions{}); err == nil {
				t.Fatalf("%v: MaterializeUnion answered a union of mixed head kinds", union)
			}
			if _, err := drain(ExecOptions{}); err == nil {
				t.Fatalf("%v: UnionTuples answered a union of mixed head kinds", union)
			}
			return
		}
		// distinctIn checks rows are distinct members of ref and returns
		// how many there are.
		distinctIn := func(what string, rows []relation.Tuple) int {
			var seen answerSet
			for _, row := range rows {
				if !ref.contains(row) {
					t.Fatalf("%v: %s answered %v, which the reference does not", union, what, row)
				}
				if !seen.add(row) {
					t.Fatalf("%v: %s answered %v twice", union, what, row)
				}
			}
			return len(rows)
		}
		// sameRows checks a materialization against the stream it
		// replaces: the same rows in the same order.
		sameRows := func(opts ExecOptions, seq []relation.Tuple) {
			streamed, err := drain(opts)
			if err != nil {
				t.Fatalf("%v: UnionTuples(%+v): %v", union, opts, err)
			}
			if len(streamed) != len(seq) {
				t.Fatalf("%v: UnionTuples(%+v) gave %d rows, MaterializeUnion %d", union, opts, len(streamed), len(seq))
			}
			for i := range seq {
				if !seq[i].Equal(streamed[i]) {
					t.Fatalf("%v: %+v row %d: MaterializeUnion %v, UnionTuples %v", union, opts, i, seq[i], streamed[i])
				}
			}
		}
		for _, opts := range []ExecOptions{{}, {Limit: limit}} {
			want := ref.n
			if opts.Limit > 0 {
				want = min(opts.Limit, ref.n)
			}
			rel, err := MaterializeUnion(ctx, plans, opts)
			if err != nil {
				t.Fatalf("%v: MaterializeUnion(%+v): %v", union, opts, err)
			}
			if n := distinctIn(fmt.Sprintf("MaterializeUnion(%+v)", opts), rel.Rows()); n != want {
				t.Fatalf("%v: MaterializeUnion(%+v) gave %d answers, want %d", union, opts, n, want)
			}
			sameRows(opts, rel.Rows())
		}
	})
}
