package pdms

import (
	"os"
	"path/filepath"
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

// TestPublishValidation pins Publish's error paths: unknown peer,
// unknown relation, and a batch whose insert does not fit the schema
// after a valid delete all fail without mutating anything — a refused
// batch leaves the relation's rows and version, the durable log and the
// push feed as they were.
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
