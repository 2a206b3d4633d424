package cq

import (
	"testing"

	"repro/internal/relation"
)

// TestCanonicalKeyInjective pins what the rewriting keys tell apart and
// what they do not. Each pair below renders alike in some text form —
// the head left out, 1 and 1.0 printed alike, a string constant spelling
// a second atom — and must still get distinct keys; a reordered body
// must not.
func TestCanonicalKeyInjective(t *testing.T) {
	p := func(args ...Term) Atom { return NewAtom("p", args...) }
	distinct := map[string][2]Query{
		"head": {
			NewQuery("q", []string{"X"}, p(V("X"))),
			NewQuery("r", []string{"X"}, p(V("X"))),
		},
		"head vars": {
			NewQuery("q", []string{"X", "Y"}, p(V("X"), V("Y"))),
			NewQuery("q", []string{"XY"}, p(V("X"), V("Y"))),
		},
		"int vs float": {
			NewQuery("q", nil, p(C(relation.IV(1)))),
			NewQuery("q", nil, p(C(relation.FV(1)))),
		},
		"constant vs variable": {
			NewQuery("q", nil, p(C(relation.SV("X")))),
			NewQuery("q", nil, p(V("X"))),
		},
		"spelled atom": {
			NewQuery("q", nil, p(C(relation.SV("a'), p('b")))),
			NewQuery("q", nil, p(C(relation.SV("a"))), p(C(relation.SV("b")))),
		},
	}
	for name, pair := range distinct {
		if CanonicalKey(pair[0]) == CanonicalKey(pair[1]) {
			t.Errorf("%s: %s and %s share a canonical key", name, pair[0], pair[1])
		}
		if string(AppendKey(nil, pair[0])) == string(AppendKey(nil, pair[1])) {
			t.Errorf("%s: %s and %s share an ordered key", name, pair[0], pair[1])
		}
	}
	a := NewQuery("q", []string{"X"}, p(V("X")), NewAtom("r", V("X"), C(relation.IV(2))))
	b := NewQuery("q", []string{"X"}, a.Body[1], a.Body[0])
	if CanonicalKey(a) != CanonicalKey(b) {
		t.Errorf("reordering the body changed the canonical key: %s vs %s", a, b)
	}
	if string(AppendKey(nil, a)) == string(AppendKey(nil, b)) {
		t.Errorf("reordering the body kept the ordered key: %s vs %s", a, b)
	}
}
