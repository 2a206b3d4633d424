package relation

import (
	"math"
	"testing"
)

func TestValueHashDistinguishesKinds(t *testing.T) {
	pairs := [][2]Value{
		{SV("1"), IV(1)},
		{IV(1), FV(1)},
		{SV("a"), SV("b")},
		{IV(3), IV(4)},
	}
	for _, p := range pairs {
		if p[0].Hash() == p[1].Hash() {
			t.Errorf("Hash collision between %v and %v", p[0], p[1])
		}
	}
	if SV("x").Hash() != SV("x").Hash() {
		t.Error("Hash not deterministic")
	}
}

func TestTupleSet(t *testing.T) {
	s := NewTupleSet(4)
	a := Tuple{SV("x"), IV(1)}
	b := Tuple{SV("x"), IV(2)}
	if !s.Add(a) {
		t.Error("first Add = false")
	}
	if s.Add(Tuple{SV("x"), IV(1)}) {
		t.Error("duplicate Add = true")
	}
	if !s.Add(b) {
		t.Error("distinct Add = false")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if !s.Contains(a) || s.Contains(Tuple{SV("y"), IV(1)}) {
		t.Error("Contains wrong")
	}
}

func TestVersionBumpsOnMutation(t *testing.T) {
	r := New(NewSchema("r", Attr("a")))
	v0 := r.Version()
	r.MustInsert(SV("x"))
	if r.Version() == v0 {
		t.Error("Insert did not bump version")
	}
	v1 := r.Version()
	r.MustInsert(SV("x"))
	r.Dedup()
	if r.Version() == v1 {
		t.Error("Dedup did not bump version")
	}
	v2 := r.Version()
	if r.Delete(Tuple{SV("missing")}) != 0 && r.Version() != v2 {
		t.Error("no-op Delete bumped version")
	}
	r.Delete(Tuple{SV("x")})
	if r.Version() == v2 {
		t.Error("Delete did not bump version")
	}
}

func TestSnapshotAsIndependence(t *testing.T) {
	r := New(NewSchema("r", Attr("a")))
	r.MustInsert(SV("x"))
	r.MustInsert(SV("y"))
	snap := r.SnapshotAs("alias.r")
	if snap.Schema.Name != "alias.r" || snap.Len() != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
	r.MustInsert(SV("z"))
	r.Delete(Tuple{SV("x")})
	if snap.Len() != 2 {
		t.Errorf("snapshot len changed to %d", snap.Len())
	}
	if !snap.Contains(Tuple{SV("x")}) {
		t.Error("snapshot lost row deleted from source")
	}
}

// TestSignedZeroIsOneValue holds Hash to ==: FV(0) == FV(-0), so the
// two must hash alike, and every structure that deduplicates by hash —
// TupleSet, ShardedTupleSet, Dedup, the dictionary — must treat them as
// one value, as the dictionary's decode-table scan always did.
func TestSignedZeroIsOneValue(t *testing.T) {
	pos, neg := FV(0), FV(math.Copysign(0, -1))
	if pos != neg || !math.Signbit(neg.F) {
		t.Fatal("test values are not +0 and -0")
	}
	if pos.Hash() != neg.Hash() {
		t.Errorf("Hash(+0) = %x, Hash(-0) = %x: == values hash apart", pos.Hash(), neg.Hash())
	}
	if s := NewTupleSet(2); !s.Add(Tuple{pos}) || s.Add(Tuple{neg}) || s.Len() != 1 {
		t.Errorf("TupleSet holds +0 and -0 as %d tuples, want 1", s.Len())
	}
	if s := NewShardedTupleSet(8); !added(s.Add(Tuple{pos})) || added(s.Add(Tuple{neg})) || s.Len() != 1 {
		t.Errorf("ShardedTupleSet holds +0 and -0 as %d tuples, want 1", s.Len())
	}
	r := New(NewSchema("f", FloatAttr("x")))
	r.MustInsert(pos)
	r.MustInsert(neg)
	if n := r.Dedup().Len(); n != 1 {
		t.Errorf("Dedup of {+0, -0} kept %d rows, want 1", n)
	}
	// Wide enough for an encode table: -0 must find +0's code there too.
	w := New(NewSchema("w", FloatAttr("x")))
	w.MustInsert(pos)
	for i := 1; i <= 3*smallDictWidth; i++ {
		w.MustInsert(FV(float64(i)))
	}
	w.MustInsert(neg)
	if c, ok := w.Encoding().Code(0, neg); !ok || c != 0 {
		t.Errorf("Code(-0) = %d,%v, want +0's code 0", c, ok)
	}
	if got := w.Encoding().Width(0); got != 3*smallDictWidth+1 {
		t.Errorf("width %d: -0 got a code of its own", got)
	}
}

// TestTupleSetGrowth drives the shared tuple table through several
// doublings with keys whose low hash bits agree (multiples of 1024),
// then checks every member is found and no non-member is — in a set
// sized for nothing, one sized for a count that is no power of two
// (its entry chunks then start at 1 000), and a sharded set, whose
// Tuples must hand back every member once.
func TestTupleSetGrowth(t *testing.T) {
	s, hinted, sh := NewTupleSet(0), NewTupleSet(1000), NewShardedTupleSet(4)
	const n = 5000
	for i := 0; i < n; i++ {
		tup := Tuple{IV(int64(i) << 10), SV("k")}
		if !s.Add(tup) || !hinted.Add(tup) || !added(sh.Add(tup)) {
			t.Fatalf("Add #%d reported a duplicate", i)
		}
		if s.Add(Tuple{IV(int64(i) << 10), SV("k")}) || hinted.Add(Tuple{IV(int64(i) << 10), SV("k")}) {
			t.Fatalf("re-Add #%d reported absent", i)
		}
	}
	if s.Len() != n || hinted.Len() != n || sh.Len() != n {
		t.Fatalf("Len = %d / %d / %d, want %d", s.Len(), hinted.Len(), sh.Len(), n)
	}
	for i := 0; i < n; i++ {
		in, out := Tuple{IV(int64(i) << 10), SV("k")}, Tuple{IV(int64(i)<<10 + 1), SV("k")}
		if !s.Contains(in) || !hinted.Contains(in) || !sh.Contains(in) ||
			s.Contains(out) || hinted.Contains(out) || sh.Contains(out) {
			t.Fatalf("membership of key %d wrong after growth", i)
		}
	}
	all := sh.Tuples()
	if len(all) != n || cap(all) != n {
		t.Fatalf("Tuples: len %d cap %d, want %d", len(all), cap(all), n)
	}
	back := NewTupleSet(n)
	for _, tup := range all {
		if !back.Add(tup) || !s.Contains(tup) {
			t.Fatalf("Tuples handed back %v twice or as a non-member", tup)
		}
	}
}
