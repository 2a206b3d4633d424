package pdms

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/relation"
	"repro/internal/view"
)

// updatesR is peer a's relation in the updates fixtures.
var updatesR = relation.NewSchema("r", relation.Attr("name"), relation.IntAttr("n"))

// updatesNetwork builds a two-peer network: a holds r(name, n), b holds
// s(name, label), both local.
func updatesNetwork(t *testing.T) *Network {
	t.Helper()
	return updatesNetworkOver(t, NewPeer("a", updatesR))
}

// updatesNetworkOver is updatesNetwork with a caller-built (empty) peer a.
func updatesNetworkOver(t *testing.T, a *Peer) *Network {
	t.Helper()
	n := NewNetwork()
	b := NewPeer("b", relation.NewSchema("s", relation.Attr("name"), relation.Attr("label")))
	for _, p := range []*Peer{a, b} {
		if err := n.AddPeer(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range []relation.Tuple{
		{relation.SV("x"), relation.IV(1)},
		{relation.SV("y"), relation.IV(2)},
	} {
		if err := a.Insert("r", row); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range []relation.Tuple{
		{relation.SV("x"), relation.SV("red")},
		{relation.SV("z"), relation.SV("blue")},
	} {
		if err := b.Insert("s", row); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestSubscribePlacement pins Subscribe's checks: unknown host peer
// and unknown referenced relations are rejected; a valid definition
// materializes immediately and registers with the network.
func TestSubscribePlacement(t *testing.T) {
	n := updatesNetwork(t)
	def := cq.MustParse("v(N) :- a.r(N, X), b.s(N, L)")
	if _, err := n.Subscribe("ghost", "v", def); err == nil {
		t.Error("subscription at unknown peer succeeded")
	}
	if _, err := n.Subscribe("b", "v", cq.MustParse("v(N) :- a.ghost(N, X)")); err == nil {
		t.Error("subscription over unknown relation succeeded")
	}
	if _, err := n.Subscribe("b", "v", cq.MustParse("v(N) :- ghost.r(N, X)")); err == nil {
		t.Error("subscription over unknown qualified peer succeeded")
	}
	sub, err := n.Subscribe("b", "v", def)
	if err != nil {
		t.Fatal(err)
	}
	if sub.AtPeer != "b" {
		t.Errorf("subscription placed at %q, want b", sub.AtPeer)
	}
	if got := sub.MV.Extent.Len(); got != 1 {
		t.Errorf("initial extent has %d rows, want 1 (only x joins)", got)
	}
	if subs := n.Subscriptions(); len(subs) != 1 || subs[0] != sub {
		t.Errorf("Subscriptions() = %v, want the one placed view", subs)
	}
}

// TestPublishPropagatesUpdategrams pins Publish: the updategram lands
// in the base relation, affected subscriptions get incremental deltas
// (inserts and deletes), untouched subscriptions are skipped, and the
// stats count touched views and shipped tuples.
func TestPublishPropagatesUpdategrams(t *testing.T) {
	n := updatesNetwork(t)
	joined, err := n.Subscribe("b", "v", cq.MustParse("v(N) :- a.r(N, X), b.s(N, L)"))
	if err != nil {
		t.Fatal(err)
	}
	other, err := n.Subscribe("a", "w", cq.MustParse("w(L) :- b.s(N, L)"))
	if err != nil {
		t.Fatal(err)
	}

	// Insert z into a.r: it joins b.s's z row, so v gains a row; w does
	// not mention a.r and must be skipped.
	st, err := n.Publish("a", "r", view.Updategram{Relation: "r",
		Inserts: []relation.Tuple{{relation.SV("z"), relation.IV(3)}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.ViewsTouched != 1 {
		t.Errorf("ViewsTouched = %d, want 1 (w does not mention a.r)", st.ViewsTouched)
	}
	if st.TuplesShipped != 1 {
		t.Errorf("TuplesShipped = %d, want 1", st.TuplesShipped)
	}
	if got := joined.MV.Extent.Len(); got != 2 {
		t.Errorf("v extent after insert = %d rows, want 2", got)
	}
	if n.Peer("a").Store.Get("r").Len() != 3 {
		t.Error("published insert did not reach the base relation")
	}

	// Delete x from a.r: v loses its original row.
	st, err = n.Publish("a", "r", view.Updategram{Relation: "r",
		Deletes: []relation.Tuple{{relation.SV("x"), relation.IV(1)}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.ViewsTouched != 1 || st.TuplesShipped != 1 {
		t.Errorf("delete stats = %+v, want 1 view, 1 tuple", st)
	}
	rows := joined.MV.Extent.Rows()
	if len(rows) != 1 || rows[0][0].S != "z" {
		t.Errorf("v extent after delete = %v, want just (z)", rows)
	}
	if got := other.MV.Extent.Len(); got != 2 {
		t.Errorf("untouched w extent changed: %d rows, want 2", got)
	}
}

// TestPublishValidation pins the refusals of Publish and
// UpdateThroughView: unknown peer, unknown relation, a batch whose
// insert does not fit the schema after a valid delete, an insert
// through a projection, a tuple a repeated head variable cannot
// derive, and an update addressed to a coordinator's mirror of the peer
// all fail without mutating anything — a refused batch leaves the
// relation's rows and version, the durable log and the push feed as
// they were.
func TestPublishValidation(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenDurablePeer("a", dir, updatesR)
	if err != nil {
		t.Fatal(err)
	}
	defer a.ClosePersist()
	n := updatesNetworkOver(t, a)
	feed, _, _ := a.FeedSubscribe(nil, 0)
	defer feed.Close()
	r := n.Peer("a").Store.Get("r")
	ver := r.Version()
	walBefore, err := os.Stat(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	u := view.Updategram{Relation: "r", Inserts: []relation.Tuple{{relation.SV("q"), relation.IV(9)}}}
	for _, c := range []struct {
		peer, rel string
		u         view.Updategram
		want      string
	}{
		{"ghost", "r", u, "ghost"},
		{"a", "ghost", u, "ghost"},
		{"a", "r", view.Updategram{Relation: "r",
			Deletes: []relation.Tuple{{relation.SV("x"), relation.IV(1)}},
			Inserts: []relation.Tuple{{relation.SV("q")}}}, "arity"},
	} {
		if _, err := n.Publish(c.peer, c.rel, c.u); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("publish to %s.%s: err = %v, want one naming %q", c.peer, c.rel, err, c.want)
		}
	}
	coord := NewNetwork()
	if _, err := coord.AddRemotePeer(context.Background(), "a", NewLoopback(a)); err != nil {
		t.Fatal(err)
	}
	sel := view.NewView("sel", cq.MustParse("sel(N, X) :- a.r(N, X)"))
	x := relation.Tuple{relation.SV("x"), relation.IV(1)}
	for _, c := range []struct {
		net  *Network
		v    view.View
		u    view.Updategram
		want string
	}{
		{n, view.NewView("names", cq.MustParse("names(N) :- a.r(N, X)")),
			view.Updategram{Inserts: []relation.Tuple{{relation.SV("q")}}}, "projection"},
		{n, view.NewView("twice", cq.MustParse("twice(N, N) :- a.r(N, X)")),
			view.Updategram{Deletes: []relation.Tuple{{relation.SV("x"), relation.SV("y")}}}, "differ"},
		{coord, sel, view.Updategram{Deletes: []relation.Tuple{x}, Inserts: u.Inserts}, "mirror"},
	} {
		if _, err := c.net.UpdateThroughView(c.v, c.u); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("update through %s: err = %v, want one naming %q", c.v.Name, err, c.want)
		}
	}
	if got := coord.Peer("a").Store.Get("r").Len(); got != 0 {
		t.Errorf("refused update wrote %d rows into the mirror", got)
	}
	if n.Peer("a").Store.Get("r").Len() != 2 {
		t.Error("failed publish mutated the base relation")
	}
	if r.Version() != ver {
		t.Errorf("failed publish moved the version %d → %d", ver, r.Version())
	}
	walAfter, err := os.Stat(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if walAfter.Size() != walBefore.Size() {
		t.Errorf("failed publish wrote to the log: %d → %d bytes", walBefore.Size(), walAfter.Size())
	}
	feed.mu.Lock()
	pushed := len(feed.buf)
	feed.mu.Unlock()
	if pushed != 0 {
		t.Errorf("failed publish pushed %d records", pushed)
	}
}

// TestInsertAndPublish pins the single-insert convenience wrapper.
func TestInsertAndPublish(t *testing.T) {
	n := updatesNetwork(t)
	sub, err := n.Subscribe("b", "v", cq.MustParse("v(N, X) :- a.r(N, X)"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := n.InsertAndPublish("a", "r", relation.Tuple{relation.SV("w"), relation.IV(7)})
	if err != nil {
		t.Fatal(err)
	}
	if st.ViewsTouched != 1 || st.TuplesShipped != 1 {
		t.Errorf("stats = %+v, want 1 view, 1 tuple", st)
	}
	if got := sub.MV.Extent.Len(); got != 3 {
		t.Errorf("extent = %d rows, want 3", got)
	}
}

// TestUpdateThroughView pins the update-through-view round trip: an
// insert through a selection view fills in the selection constant, a
// delete removes exactly the base rows deriving the view tuple, rows
// outside the selection stay, and the commit maintains the placed views
// over the base relation like any Publish.
func TestUpdateThroughView(t *testing.T) {
	n := updatesNetwork(t)
	sub, err := n.Subscribe("b", "v", cq.MustParse("v(N, X) :- a.r(N, X)"))
	if err != nil {
		t.Fatal(err)
	}
	ones := view.NewView("ones", cq.MustParse("ones(N) :- a.r(N, 1)"))
	st, err := n.UpdateThroughView(ones, view.Updategram{Relation: "ones",
		Inserts: []relation.Tuple{{relation.SV("w")}},
		Deletes: []relation.Tuple{{relation.SV("x")}}})
	if err != nil {
		t.Fatal(err)
	}
	r := n.Peer("a").Store.Get("r")
	for _, c := range []struct {
		row  relation.Tuple
		want bool
	}{
		{relation.Tuple{relation.SV("w"), relation.IV(1)}, true},
		{relation.Tuple{relation.SV("x"), relation.IV(1)}, false},
		{relation.Tuple{relation.SV("y"), relation.IV(2)}, true},
	} {
		if r.Contains(c.row) != c.want {
			t.Errorf("a.r holds %v: %v, want %v (rows %v)", c.row, !c.want, c.want, r.Rows())
		}
	}
	if st.ViewsTouched != 1 || st.TuplesShipped != 2 {
		t.Errorf("stats = %+v, want 1 view, 2 tuples", st)
	}
	if got := n.ViewExtent(sub); !got.Equal(r.Clone().Dedup()) {
		t.Errorf("placed view %v, base %v", got.Rows(), r.Rows())
	}
	st, err = n.UpdateThroughView(ones, view.Updategram{Relation: "ones",
		Deletes: []relation.Tuple{{relation.SV("y")}}})
	if err != nil || st.ViewsTouched != 0 || r.Len() != 2 {
		t.Errorf("delete outside the selection: stats %+v, err %v, %d rows", st, err, r.Len())
	}
}

// TestCommitRefusesMirror is the scenario a commit on a coordinator's
// mirror of a remote peer used to corrupt: the write landed in the
// replica only, and because the origin's later commits moved the
// (version, rows) fingerprint as the replica expected, the delta rung
// served the forked rows as current. Every commit path — Peer.Insert,
// Peer.Delete, Publish, UpdateThroughView — must refuse the mirror,
// leave its replica untouched, and keep the coordinator answering what
// the origin holds.
func TestCommitRefusesMirror(t *testing.T) {
	o, err := OpenDurablePeer("o", t.TempDir(), updatesR)
	if err != nil {
		t.Fatal(err)
	}
	defer o.ClosePersist()
	row := func(name string) relation.Tuple { return relation.Tuple{relation.SV(name), relation.IV(1)} }
	for _, name := range []string{"a", "b", "c"} {
		if err := o.Insert("r", row(name)); err != nil {
			t.Fatal(err)
		}
	}
	coord := NewNetwork()
	if _, err := coord.AddRemotePeer(context.Background(), "o", NewLoopback(o)); err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse("q(N, X) :- r(N, X)")
	answer := func() []byte {
		t.Helper()
		res, err := coord.Answer("o", q, ReformOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return sortedWire(res.Answers.Rows())
	}
	answer() // cold fill
	mirror := coord.Peer("o")
	replica := mirror.Store.Get("r")
	ver, rows := replica.Version(), replica.Len()
	ghosts := view.Updategram{Relation: "r", Inserts: []relation.Tuple{row("ghost1"), row("ghost2")}}
	everything := view.NewView("all", cq.MustParse("all(N, X) :- o.r(N, X)"))
	for _, c := range []struct {
		name   string
		commit func() error
	}{
		{"Publish", func() error { _, err := coord.Publish("o", "r", ghosts); return err }},
		{"Insert", func() error { return mirror.Insert("r", row("ghost1")) }},
		{"Delete", func() error { _, err := mirror.Delete("r", row("a")); return err }},
		{"UpdateThroughView", func() error { _, err := coord.UpdateThroughView(everything, ghosts); return err }},
	} {
		name := c.name
		if err := c.commit(); err == nil || !strings.Contains(err.Error(), "origin") {
			t.Errorf("%s on the mirror: err = %v, want a refusal naming the origin", name, err)
		}
		if replica.Version() != ver || replica.Len() != rows {
			t.Fatalf("%s on the mirror moved the replica to (%d, %d) from (%d, %d)",
				name, replica.Version(), replica.Len(), ver, rows)
		}
	}
	for _, name := range []string{"d", "e", "f"} {
		if err := o.Insert("r", row(name)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := answer(), sortedWire(o.Store.Get("r").Rows()); string(got) != string(want) {
		t.Errorf("coordinator answers %x, origin holds %x", got, want)
	}
}

// TestUpdateThroughViewCostIndependentOfBase is the deterministic proxy
// for "an update through a view commits in O(change)": a one-row insert
// through a selection view — translate against the global snapshot,
// commit, next snapshot — must allocate the same at 5 000 and 50 000
// base rows, with no copy of the base and no refresh of the view. The
// delete leg is logged beside it: a delete still scans the base for its
// victims and Relation.Delete rebuilds the relation.
func TestUpdateThroughViewCostIndependentOfBase(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	ones := view.NewView("ones", cq.MustParse("ones(N) :- a.r(N, 1)"))
	measure := func(rows, ops int, del bool) (mallocs, bytes float64) {
		a := NewPeer("a", updatesR)
		n := NewNetwork()
		if err := n.AddPeer(a); err != nil {
			t.Fatal(err)
		}
		base := make([]relation.Tuple, rows)
		for i := range base {
			base[i] = relation.Tuple{relation.SV(fmt.Sprintf("row%d", i)), relation.IV(int64(i % 3))}
		}
		if _, err := n.Publish("a", "r", view.Updategram{Inserts: base}); err != nil {
			t.Fatal(err)
		}
		const warm = 8
		us := make([]view.Updategram, warm+ops)
		for i := range us {
			if del {
				us[i].Deletes = []relation.Tuple{base[3*i+1][:1]}
			} else {
				us[i].Inserts = []relation.Tuple{{relation.SV(fmt.Sprintf("new%d", i))}}
			}
		}
		update := func(u view.Updategram) {
			if _, err := n.UpdateThroughView(ones, u); err != nil {
				t.Fatal(err)
			}
		}
		for _, u := range us[:warm] { // first snapshot, first slice growth
			update(u)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, u := range us[warm:] {
			update(u)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(ops), float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
	}
	smallAllocs, smallBytes := measure(5000, 256, false)
	largeAllocs, largeBytes := measure(50000, 256, false)
	t.Logf("per insert through a view: 5 000 rows %.1f mallocs %.0f B; 50 000 rows %.1f mallocs %.0f B",
		smallAllocs, smallBytes, largeAllocs, largeBytes)
	const ceiling = 64
	if smallAllocs > ceiling || largeAllocs > ceiling {
		t.Errorf("mallocs per insert %.1f / %.1f, want under %d at either size", smallAllocs, largeAllocs, ceiling)
	}
	if d := largeAllocs - smallAllocs; d > 2 || d < -2 {
		t.Errorf("mallocs per insert grew with the base: %.1f at 5 000 rows, %.1f at 50 000", smallAllocs, largeAllocs)
	}
	smallAllocs, smallBytes = measure(5000, 16, true)
	largeAllocs, largeBytes = measure(50000, 16, true)
	t.Logf("per delete through a view (not gated): 5 000 rows %.1f mallocs %.0f B; 50 000 rows %.1f mallocs %.0f B",
		smallAllocs, smallBytes, largeAllocs, largeBytes)
}
