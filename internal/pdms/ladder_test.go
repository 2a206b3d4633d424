package pdms

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/relation"
)

// refusing forwards to its inner transport but answers ExecPlan and
// Delta with mirrorOnly's typed refusals when told to, and counts the
// Delta requests it receives.
type refusing struct {
	Transport
	ship, delta bool
	deltas      atomic.Int64
}

func (r *refusing) ExecPlan(ctx context.Context, peer string, sp relation.SubPlan, deliver func([]relation.Tuple) error) error {
	if r.ship {
		return mirrorOnly{}.ExecPlan(ctx, peer, sp, deliver)
	}
	return r.Transport.ExecPlan(ctx, peer, sp, deliver)
}

func (r *refusing) Delta(ctx context.Context, peer, rel string, since uint64) ([]relation.ChangeRecord, bool, error) {
	r.deltas.Add(1)
	if r.delta {
		return mirrorOnly{}.Delta(ctx, peer, rel, since)
	}
	return r.Transport.Delta(ctx, peer, rel, since)
}

// TestSyncLadder pins the fallback chain: one stale relation, requested
// with ShipAlways, lands on the first rung its serving node does not
// refuse, and Cursor.SyncPaths, RemoteSyncCounts and Explain all name
// that rung. A mirror rung leaves the replica on the origin's own
// fingerprint. After InvalidateCaches no replica is synced, so the next
// query scans without asking for a Delta.
func TestSyncLadder(t *testing.T) {
	for _, tc := range []struct {
		name        string
		ship, delta bool // refused by the serving node
		want        string
	}{
		{name: "refuses nothing", want: "ship"},
		{name: "refuses ship", ship: true, want: "delta"},
		{name: "refuses ship and delta", ship: true, delta: true, want: "scan"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			subject := relation.NewSchema("subject", relation.Attr("name"), relation.IntAttr("enrollment"))
			origin, err := OpenDurablePeer("mit", t.TempDir(), subject)
			if err != nil {
				t.Fatal(err)
			}
			defer origin.ClosePersist()
			insert := func(from, to int) {
				for i := from; i < to; i++ {
					if err := origin.Insert("subject", subjectRow(fmt.Sprintf("s%d", i), int64(i))); err != nil {
						t.Fatal(err)
					}
				}
			}
			insert(0, 20)
			n := NewNetwork()
			if err := n.AddPeer(NewPeer("berkeley",
				relation.NewSchema("course", relation.Attr("title"), relation.IntAttr("size")))); err != nil {
				t.Fatal(err)
			}
			tr := &refusing{Transport: NewLoopback(origin), ship: tc.ship, delta: tc.delta}
			rp, err := n.AddRemotePeer(context.Background(), "mit", tr)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.AddMapping(glav.MustNew("m2b", "mit", cq.MustParse("m(T, S) :- subject(T, S)"),
				"berkeley", cq.MustParse("m(T, S) :- course(T, S)"))); err != nil {
				t.Fatal(err)
			}
			req := Request{Peer: "berkeley", Query: cq.MustParse("q(T, S) :- course(T, S)")}
			counts := func() map[string]uint64 {
				scans, deltas, ships := n.RemoteSyncCounts()
				return map[string]uint64{"scan": scans, "delta": deltas, "ship": ships}
			}
			// query answers req and checks the answers are the origin's rows
			// and the refresh went via path alone.
			query := func(req Request, path string) {
				t.Helper()
				before := counts()
				rel, cur := answerRows(t, n, req)
				if !bytes.Equal(sortedWire(rel.Rows()), sortedWire(origin.Store.Get("subject").Rows())) {
					t.Errorf("via %s: answers differ from the origin's rows", path)
				}
				if got := cur.SyncPaths(); !reflect.DeepEqual(got, []SyncPath{{Peer: "mit", Rel: "subject", Path: path}}) {
					t.Errorf("SyncPaths = %v, want mit.subject via %s", got, path)
				}
				if explain := cur.Explain(); strings.Count(explain, "sync ") != 1 ||
					!strings.Contains(explain, "sync mit.subject via "+path+"\n") {
					t.Errorf("Explain does not name %s alone:\n%s", path, explain)
				}
				want := maps.Clone(before)
				want[path]++
				if got := counts(); !maps.Equal(got, want) {
					t.Errorf("RemoteSyncCounts %v -> %v, want %v", before, got, want)
				}
				if path != "ship" {
					replica, src := rp.mirror.Store.Get("subject"), origin.Store.Get("subject")
					if replica.Version() != src.Version() || replica.Len() != src.Len() {
						t.Errorf("via %s: replica at (v%d, %d rows), origin at (v%d, %d rows)",
							path, replica.Version(), replica.Len(), src.Version(), src.Len())
					}
				}
			}

			query(req, "scan") // cold fill: no replica yet, so no Delta
			insert(20, 23)
			shipped := req
			shipped.Ship = ShipAlways
			query(shipped, tc.want)

			n.InvalidateCaches()
			deltas := tr.deltas.Load()
			query(req, "scan")
			if got := tr.deltas.Load() - deltas; got != 0 {
				t.Errorf("%d Delta calls after InvalidateCaches, want 0: an un-synced replica scans", got)
			}
		})
	}
}

// inflatedState is a remote node that lies about its size: every
// relation's State row count reads claim, whatever its scan then sends.
type inflatedState struct {
	mirrorOnly
	claim int
}

func (f inflatedState) State(ctx context.Context, peer string) (PeerState, error) {
	st, err := f.Transport.State(ctx, peer)
	for i := range st.Relations {
		st.Relations[i].Stats.Rows = f.claim
	}
	return st, err
}

// TestScanPresizeIgnoresClaimedRows: a State probe that claims 1<<40
// rows for a relation whose scan streams three must not size anything
// by the claim. The query gets the three rows, the replica holds them,
// and because they do not match the claimed fingerprint the next query
// treats the replica as stale and scans again — all within a few
// hundred kilobytes.
func TestScanPresizeIgnoresClaimedRows(t *testing.T) {
	fact := relation.NewSchema("fact", relation.Attr("k"), relation.Attr("p"))
	src := NewPeer("src", fact)
	for i := 0; i < 3; i++ {
		if err := src.Insert("fact", relation.Tuple{relation.SV(fmt.Sprintf("k%d", i)), relation.SV(fmt.Sprintf("p%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	lb := NewLoopback(src)
	n := NewNetwork()
	if err := n.AddPeer(NewPeer("home", fact)); err != nil {
		t.Fatal(err)
	}
	rp, err := n.AddRemotePeer(context.Background(), "src", inflatedState{mirrorOnly{lb}, 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddMapping(glav.MustNew("s2h", "src", cq.MustParse("m(K, P) :- fact(K, P)"),
		"home", cq.MustParse("m(K, P) :- fact(K, P)"))); err != nil {
		t.Fatal(err)
	}
	req := Request{Peer: "home", Query: cq.MustParse("q(K, P) :- fact(K, P)")}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, _ := answerRows(t, n, req)
	runtime.ReadMemStats(&after)
	if delta := after.TotalAlloc - before.TotalAlloc; delta >= 4<<20 {
		t.Errorf("query against a 1<<40-row claim allocated %d bytes, want under 4 MiB", delta)
	}
	if got.Len() != 3 {
		t.Fatalf("answers = %d, want 3", got.Len())
	}
	if r := rp.mirror.Store.Get("fact"); r == nil || r.Len() != 3 {
		t.Fatalf("replica = %v, want 3 rows", r)
	}
	scans := lb.Scans()
	if got, _ := answerRows(t, n, req); got.Len() != 3 {
		t.Fatalf("second answers = %d, want 3", got.Len())
	}
	if lb.Scans() != scans+1 {
		t.Fatalf("second query scanned %d times, want 1: a replica short of the claim is stale", lb.Scans()-scans)
	}
}
