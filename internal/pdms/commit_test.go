package pdms

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/view"
)

// TestOneWritePath is the write-path differential. One durable peer is
// at once joined to a network with a placed view over it, served
// through a Loopback, and push-subscribed by a coordinator; a seeded
// script writes to it through Publish batches, Peer.Insert,
// Peer.Delete and UpdateThroughView on a selection view. Every write goes through the one commit, so after every
// step (i) the placed view's extent equals a fresh Refresh over
// GlobalDB, and (ii) once the push is applied the coordinator's answer
// equals the origin relation; at the end (iii) reopening the durable
// store — closed without a checkpoint, as a SIGKILL leaves it — yields
// the origin's digest. Failures are tallied per leg and operation, so a
// broken path reports every leg it breaks.
func TestOneWritePath(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenDurablePeer("a", dir, updatesR)
	if err != nil {
		t.Fatal(err)
	}
	defer a.ClosePersist()
	b := NewPeer("b", relation.NewSchema("s", relation.Attr("name"), relation.Attr("label")))
	net := NewNetwork()
	for _, p := range []*Peer{a, b} {
		if err := net.AddPeer(p); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(27))
	names := []string{"u", "v", "w", "x", "y", "z"}
	randRow := func(rel string) relation.Tuple {
		name := relation.SV(names[rng.Intn(len(names))])
		if rel == "r" {
			return relation.Tuple{name, relation.IV(int64(rng.Intn(3)))}
		}
		return relation.Tuple{name, relation.SV([]string{"red", "blue"}[rng.Intn(2)])}
	}
	// someRow mostly picks a stored row, so deletes usually remove one.
	someRow := func(p *Peer, rel string) relation.Tuple {
		if rows := p.Store.Get(rel).Rows(); len(rows) > 0 && rng.Intn(3) > 0 {
			return rows[rng.Intn(len(rows))]
		}
		return randRow(rel)
	}
	for range 6 {
		if err := a.Insert("r", randRow("r")); err != nil {
			t.Fatal(err)
		}
		if err := b.Insert("s", randRow("s")); err != nil {
			t.Fatal(err)
		}
	}
	def := cq.MustParse("v(N, X, L) :- a.r(N, X), b.s(N, L)")
	sub, err := net.Subscribe("b", "v", def)
	if err != nil {
		t.Fatal(err)
	}
	ones := view.NewView("ones", cq.MustParse("ones(N) :- a.r(N, 1)"))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord := NewNetwork()
	if _, err := coord.AddRemotePeer(ctx, "a", NewLoopback(a)); err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse("q(N, X) :- r(N, X)")
	coordAnswer := func() ([]byte, error) {
		res, err := coord.Answer("a", q, ReformOptions{})
		if err != nil {
			return nil, err
		}
		return sortedWire(res.Answers.Rows()), nil
	}
	if _, err := coordAnswer(); err != nil { // cold fill: the replica push maintains
		t.Fatal(err)
	}
	if err := coord.StartPush(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	defer coord.StopPush("a")
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	err = coord.WaitPushLive(wctx, "a")
	wcancel()
	if err != nil {
		t.Fatalf("push never went live: %v", err)
	}

	type leg struct {
		byOp  map[string]int
		first string
	}
	legs := map[string]*leg{}
	fail := func(name, op string, format string, args ...any) {
		l := legs[name]
		if l == nil {
			l = &leg{byOp: map[string]int{}, first: fmt.Sprintf(format, args...)}
			legs[name] = l
		}
		l.byOp[op]++
	}
	pushWait := 30 * time.Second // cut short once a push went missing
	for step := range 100 {
		p, rel := a, "r"
		if rng.Intn(4) == 0 {
			p, rel = b, "s"
		}
		var op string
		switch rng.Intn(4) {
		case 0:
			op = "publish"
			u := view.Updategram{Relation: rel}
			for range rng.Intn(3) {
				u.Deletes = append(u.Deletes, someRow(p, rel))
			}
			for range rng.Intn(3) {
				u.Inserts = append(u.Inserts, randRow(rel))
			}
			_, err = net.Publish(p.Name, rel, u)
		case 1:
			op = "insert"
			err = p.Insert(rel, randRow(rel))
		case 2:
			op = "delete"
			_, err = p.Delete(rel, someRow(p, rel))
		default:
			op, p, rel = "view", a, "r"
			u := view.Updategram{Relation: ones.Name}
			name := randRow(rel)[:1]
			if rng.Intn(2) == 0 {
				u.Inserts = append(u.Inserts, name)
			} else {
				u.Deletes = append(u.Deletes, name)
			}
			_, err = net.UpdateThroughView(ones, u)
		}
		if err != nil {
			t.Fatalf("step %d (%s %s.%s): %v", step, op, p.Name, rel, err)
		}

		// (i) The placed view was maintained by the write itself.
		mv := view.NewMaterialized(view.NewView("fresh", def))
		if err := mv.Refresh(net.GlobalDB()); err != nil {
			t.Fatal(err)
		}
		if got := net.ViewExtent(sub); !bytes.Equal(sortedWire(got.Rows()), sortedWire(mv.Extent.Rows())) {
			fail("(i) view ≡ refresh", op, "step %d %s %s.%s: extent %v, refresh %v",
				step, op, p.Name, rel, got.Rows(), mv.Extent.Rows())
			if err := sub.MV.Refresh(net.GlobalDB()); err != nil { // heal, so each failure is its own step's
				t.Fatal(err)
			}
		}

		// (ii) The write reached the push subscriber.
		origin := a.Store.Get("r")
		pctx, pcancel := context.WithTimeout(ctx, pushWait)
		err = coord.WaitPushApplied(pctx, "a", "r", origin.Version())
		pcancel()
		if err != nil {
			pushWait = 100 * time.Millisecond
			fail("(ii) push ≡ origin", op, "step %d %s %s.%s: version %d never pushed: %v",
				step, op, p.Name, rel, origin.Version(), err)
		} else if got, err := coordAnswer(); err != nil {
			t.Fatal(err)
		} else if want := sortedWire(origin.Clone().Dedup().Rows()); !bytes.Equal(got, want) {
			fail("(ii) push ≡ origin", op, "step %d %s %s.%s: coordinator answer differs from origin %v",
				step, op, p.Name, rel, origin.Rows())
		} else {
			continue
		}
		coord.InvalidateCaches() // heal through a re-fetch, as for (i)
		if _, err := coordAnswer(); err != nil {
			t.Fatal(err)
		}
	}

	// (iii) Every write is in the log: the store reopens to the origin.
	coord.StopPush("a")
	want := store.Digest(a.Store)
	if err := a.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurablePeer("a", dir)
	if err != nil {
		fail("(iii) reopen ≡ origin", "reopen", "reopen: %v", err)
	} else {
		defer re.ClosePersist()
		if got := store.Digest(re.Store); got != want {
			fail("(iii) reopen ≡ origin", "reopen", "recovered digest %s, origin %s", got, want)
		}
	}

	for _, name := range []string{"(i) view ≡ refresh", "(ii) push ≡ origin", "(iii) reopen ≡ origin"} {
		if l := legs[name]; l != nil {
			t.Errorf("%s failed after %v; first: %s", name, l.byOp, l.first)
		}
	}
}
