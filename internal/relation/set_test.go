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
	s := newTupleSet(4, nil)
	a := Tuple{SV("x"), IV(1)}
	b := Tuple{SV("x"), IV(2)}
	if !s.add(a) {
		t.Error("first add = false")
	}
	if s.add(Tuple{SV("x"), IV(1)}) {
		t.Error("duplicate add = true")
	}
	if !s.add(b) {
		t.Error("distinct add = false")
	}
	if len(s.rows) != 2 {
		t.Errorf("%d rows, want 2", len(s.rows))
	}
	if !s.contains(a) || s.contains(Tuple{SV("y"), IV(1)}) {
		t.Error("contains wrong")
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
// the tuple set behind Dedup and Equal, the dictionary — must treat
// them as one value, as the dictionary's decode-table scan always did.
func TestSignedZeroIsOneValue(t *testing.T) {
	pos, neg := FV(0), FV(math.Copysign(0, -1))
	if pos != neg || !math.Signbit(neg.F) {
		t.Fatal("test values are not +0 and -0")
	}
	if pos.Hash() != neg.Hash() {
		t.Errorf("Hash(+0) = %x, Hash(-0) = %x: == values hash apart", pos.Hash(), neg.Hash())
	}
	if s := newTupleSet(2, nil); !s.add(Tuple{pos}) || s.add(Tuple{neg}) || len(s.rows) != 1 {
		t.Errorf("tupleSet holds +0 and -0 as %d tuples, want 1", len(s.rows))
	}
	r := New(NewSchema("f", FloatAttr("x")))
	r.MustInsert(pos)
	r.MustInsert(neg)
	one := New(NewSchema("g", FloatAttr("x")))
	one.MustInsert(neg)
	if !r.Equal(one) {
		t.Error("Equal tells {+0, -0} from {-0}")
	}
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

// TestTupleSetGrowth fills a tuple set to the most tuples it was sized
// for — a set never grows, so Dedup and Equal rely on newTupleSet(n)
// holding n distinct tuples — with integer keys that are multiples of
// 1<<10 and so share their low bits, then dedups a relation that holds
// each of those tuples twice.
func TestTupleSetGrowth(t *testing.T) {
	const n = 5000
	key := func(i int) Tuple { return Tuple{IV(int64(i) << 10), SV("k")} }
	s := newTupleSet(n, nil)
	for i := 0; i < n; i++ {
		if !s.add(key(i)) {
			t.Fatalf("add #%d reported a duplicate", i)
		}
		if s.add(key(i)) {
			t.Fatalf("re-add #%d reported absent", i)
		}
	}
	if len(s.rows) != n {
		t.Fatalf("%d rows, want %d", len(s.rows), n)
	}
	for i := 0; i < n; i++ {
		if !s.contains(key(i)) || s.contains(Tuple{IV(int64(i)<<10 + 1), SV("k")}) {
			t.Fatalf("membership of key %d wrong in a full set", i)
		}
	}
	r := New(NewSchema("r", IntAttr("a"), Attr("b")))
	for i := 0; i < 2*n; i++ {
		if err := r.Insert(key(i % n)); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Dedup().Len(); got != n {
		t.Fatalf("Dedup kept %d rows, want %d", got, n)
	}
	for i, row := range r.Rows() {
		if !row.Equal(key(i)) {
			t.Fatalf("row %d = %v after Dedup, want %v (first occurrences in order)", i, row, key(i))
		}
	}
}
