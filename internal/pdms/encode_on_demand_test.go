package pdms

import (
	"context"
	"testing"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/relation"
)

// cursorRows drains a fresh cursor for req both ways — Next/Tuple and
// Materialize — and returns the two answer sets.
func cursorRows(t *testing.T, n *Network, req Request) (pulled, materialized []relation.Tuple) {
	t.Helper()
	cur, err := n.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
		pulled = append(pulled, cur.Tuple())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	cur, err = n.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cur.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return pulled, res.Rows()
}

// TestCursorEncodeOnDemand stores relations that maintain no dictionary
// encoding — NewResult relations filled row by row and in a batch —
// directly in two mapped peers' databases and joins them through the
// cursor, over unions of up to four rewritings: the one executor builds
// their encodings on first use, and the answers equal EvalReference's
// over the same rewritings. A zero-atom query rides the same path and yields
// its single empty tuple.
func TestCursorEncodeOnDemand(t *testing.T) {
	ab := []relation.Attribute{relation.Attr("a"), relation.Attr("b")}
	res := relation.NewResult(relation.Schema{Name: "res", Attrs: ab})
	far := relation.NewResult(relation.Schema{Name: "far", Attrs: ab})
	proj := relation.NewResult(relation.Schema{Name: "proj",
		Attrs: []relation.Attribute{relation.Attr("b"), relation.Attr("a")}})
	sel := relation.NewResult(relation.Schema{Name: "sel", Attrs: ab})
	var projRows, selRows []relation.Tuple
	for i := 0; i < 40; i++ {
		a, b := relation.SV(string(rune('a'+i%5))), relation.SV(string(rune('a'+(i*3+1)%7)))
		res.MustInsert(b, a)
		far.MustInsert(relation.SV(string(rune('a'+i%6))), a)
		projRows = append(projRows, relation.Tuple{b, a})
		if a != relation.SV("a") {
			selRows = append(selRows, relation.Tuple{a, b})
		}
	}
	if err := proj.InsertBatch(projRows); err != nil {
		t.Fatal(err)
	}
	if err := sel.InsertBatch(selRows); err != nil {
		t.Fatal(err)
	}

	near := NewPeer("near", res.Schema, proj.Schema, sel.Schema)
	for _, r := range []*relation.Relation{res, proj, sel} {
		near.Store.Put(r)
	}
	other := NewPeer("other", far.Schema)
	other.Store.Put(far)
	n := NewNetwork()
	for _, p := range []*Peer{near, other} {
		if err := n.AddPeer(p); err != nil {
			t.Fatal(err)
		}
	}
	// other.far is visible as near.res, so joins over res fan out into
	// several rewritings.
	if err := n.AddMapping(glav.MustNew("far2res", "other", cq.MustParse("m(A, B) :- far(A, B)"),
		"near", cq.MustParse("m(A, B) :- res(A, B)"))); err != nil {
		t.Fatal(err)
	}
	widest := 0
	for _, q := range []cq.Query{
		cq.MustParse("q(X, Y) :- res(X, Z), res(Z, Y)"),
		cq.MustParse("q(X, Y) :- proj(X, Z), sel(Z, Y)"),
		cq.MustParse("q(X) :- sel(X, 'b'), res(X, Y), proj(Y, X)"),
		cq.NewQuery("q", nil),
	} {
		req := Request{Peer: "near", Query: q}
		cur, err := n.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		rws := cur.Rewritings()
		cur.Close()
		if len(rws) > widest {
			widest = len(rws)
		}
		want := relation.New(cur.Schema())
		for _, rw := range rws {
			r, err := cq.EvalReference(n.GlobalDB(), rw)
			if err != nil {
				t.Fatal(err)
			}
			if err := want.InsertBatch(r.Rows()); err != nil {
				t.Fatal(err)
			}
		}
		want.Dedup()
		if want.Len() == 0 {
			t.Fatalf("%s has no answers; the differential proves nothing", q)
		}
		pulled, materialized := cursorRows(t, n, req)
		for name, rows := range map[string][]relation.Tuple{"Next": pulled, "Materialize": materialized} {
			got := relation.New(cur.Schema())
			for _, row := range rows {
				if err := got.Insert(row); err != nil {
					t.Fatal(err)
				}
			}
			if len(rows) != want.Len() || !got.Equal(want) {
				t.Errorf("%s via %s: %d answers, EvalReference has %d (or the sets differ)",
					q, name, len(rows), want.Len())
			}
		}
	}
	if widest < 4 {
		t.Errorf("widest union had %d branches, want a union of at least 4", widest)
	}
}
