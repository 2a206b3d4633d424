package pdms

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"reflect"
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
