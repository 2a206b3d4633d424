package pdms

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/relation"
)

// mirrorOnly serves State, Schemas and Scan from its inner transport
// and answers Delta, ExecPlan and Subscribe with the typed refusals of
// a node that only mirrors. Fakes that fault the mirror ops embed it,
// so no op reaches the inner transport around their gate.
type mirrorOnly struct{ Transport }

func (mirrorOnly) Delta(context.Context, string, string, uint64) ([]relation.ChangeRecord, bool, error) {
	return nil, false, nil
}

func (mirrorOnly) ExecPlan(context.Context, string, relation.SubPlan, func([]relation.Tuple) error) error {
	return fmt.Errorf("%w: mirror-only test transport", ErrPlanUnsupported)
}

func (mirrorOnly) Subscribe(context.Context, string, map[string]uint64,
	func(PeerState) error, func([]relation.ChangeRecord) error) error {
	return fmt.Errorf("%w: mirror-only test transport", ErrPushUnsupported)
}

// flakyTransport wraps a Transport, failing operations against peers
// marked dead — a tiny in-package stand-in for internal/faults (which
// this package cannot import without a cycle). kill(peer, true) makes
// every op against that peer fail as unreachable; killScans limits the
// failure to Scan, modeling a peer that answers probes but dies
// mid-fetch.
type flakyTransport struct {
	mirrorOnly
	mu        sync.Mutex
	dead      map[string]bool
	scansOnly map[string]bool
}

func newFlaky(inner Transport) *flakyTransport {
	return &flakyTransport{mirrorOnly: mirrorOnly{inner},
		dead: make(map[string]bool), scansOnly: make(map[string]bool)}
}

func (f *flakyTransport) kill(peer string, on bool) {
	f.mu.Lock()
	f.dead[peer] = on
	f.mu.Unlock()
}

func (f *flakyTransport) killScans(peer string, on bool) {
	f.mu.Lock()
	f.scansOnly[peer] = on
	f.mu.Unlock()
}

func (f *flakyTransport) unreachable(peer string, scan bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead[peer] || (scan && f.scansOnly[peer]) {
		return fmt.Errorf("%w: simulated outage of %s", ErrPeerUnreachable, peer)
	}
	return nil
}

func (f *flakyTransport) State(ctx context.Context, peer string) (PeerState, error) {
	if err := f.unreachable(peer, false); err != nil {
		return PeerState{}, err
	}
	return f.Transport.State(ctx, peer)
}

func (f *flakyTransport) Schemas(ctx context.Context, peer string) ([]relation.Schema, error) {
	if err := f.unreachable(peer, false); err != nil {
		return nil, err
	}
	return f.Transport.Schemas(ctx, peer)
}

func (f *flakyTransport) Scan(ctx context.Context, peer, rel string, deliver func([]relation.Tuple) error) error {
	if err := f.unreachable(peer, true); err != nil {
		return err
	}
	return f.Transport.Scan(ctx, peer, rel, deliver)
}

// testRetry is a fast policy for outage tests: two quick attempts so
// degradation triggers in milliseconds, not seconds.
func testRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond,
		MaxDelay: 2 * time.Millisecond, OpTimeout: time.Second, Budget: 8}
}

// flakyChainNetwork is remoteChainNetwork with the remote transport
// wrapped in a flakyTransport so tests can take peers down at will.
func flakyChainNetwork(t *testing.T) (*Network, *flakyTransport, map[string]*Peer) {
	t.Helper()
	n := NewNetwork()
	n.DownProbeInterval = 5 * time.Millisecond
	b := NewPeer("berkeley", relation.NewSchema("course", relation.Attr("title"), relation.IntAttr("size")))
	m := NewPeer("mit", relation.NewSchema("subject", relation.Attr("name"), relation.IntAttr("enrollment")))
	o := NewPeer("oxford", relation.NewSchema("offering", relation.Attr("label"), relation.IntAttr("seats")))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(b.Insert("course", relation.Tuple{relation.SV("Ancient History"), relation.IV(40)}))
	must(b.Insert("course", relation.Tuple{relation.SV("Databases"), relation.IV(60)}))
	must(m.Insert("subject", relation.Tuple{relation.SV("AI"), relation.IV(80)}))
	must(o.Insert("offering", relation.Tuple{relation.SV("Greek Philosophy"), relation.IV(15)}))
	fl := newFlaky(NewLoopback(m, o))
	must(n.AddPeer(b))
	if _, err := n.AddRemotePeer(context.Background(), "mit", fl); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddRemotePeer(context.Background(), "oxford", fl); err != nil {
		t.Fatal(err)
	}
	addGAV := func(id, srcPeer, srcQ, tgtPeer, tgtQ string) {
		t.Helper()
		mp := glav.MustNew(id, srcPeer, cq.MustParse(srcQ), tgtPeer, cq.MustParse(tgtQ))
		must(n.AddMapping(mp))
	}
	addGAV("b2m", "berkeley", "m(T, S) :- course(T, S)", "mit", "m(T, S) :- subject(T, S)")
	addGAV("m2b", "mit", "m(T, S) :- subject(T, S)", "berkeley", "m(T, S) :- course(T, S)")
	addGAV("m2o", "mit", "m(T, S) :- subject(T, S)", "oxford", "m(T, S) :- offering(T, S)")
	addGAV("o2m", "oxford", "m(T, S) :- offering(T, S)", "mit", "m(T, S) :- subject(T, S)")
	return n, fl, map[string]*Peer{"mit": m, "oxford": o}
}

// answerRows materializes one Query request and returns its cursor for
// degradation inspection alongside the answer relation.
func answerRows(t *testing.T, n *Network, req Request) (*relation.Relation, *Cursor) {
	t.Helper()
	cur, err := n.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := cur.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return rel, cur
}

func TestDegradedServesLastGoodSnapshot(t *testing.T) {
	n, fl, served := flakyChainNetwork(t)
	q := cq.MustParse("q(T) :- course(T, S)")
	req := Request{Peer: "berkeley", Query: q, Retry: testRetry()}

	warm, _ := answerRows(t, n, req) // replicas now hold the last-good rows
	if warm.Len() != 4 {
		t.Fatalf("warm answers = %d, want 4", warm.Len())
	}

	fl.kill("mit", true)
	// While mit's node is dark, its peer still takes writes the
	// coordinator cannot see — the stale answer must predate them.
	if err := served["mit"].Insert("subject", relation.Tuple{relation.SV("Robotics"), relation.IV(25)}); err != nil {
		t.Fatal(err)
	}

	// Fresh-only query: typed failure, no stale rows masquerading as fresh.
	if _, err := n.Query(context.Background(), req); !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("fresh-only query on a dead peer: err = %v, want ErrPeerUnreachable", err)
	}

	// Stale-tolerant query: succeeds from the last-good mirror and says so.
	stale := req
	stale.AllowStale = true
	rows, cur := answerRows(t, n, stale)
	if !rows.Equal(warm) {
		t.Fatalf("degraded answers %v differ from last-good %v", rows.Rows(), warm.Rows())
	}
	deg := cur.Degraded()
	if len(deg) != 1 || deg[0].Peer != "mit" {
		t.Fatalf("Degraded() = %+v, want exactly mit", deg)
	}
	if !errors.Is(deg[0].Err, ErrPeerUnreachable) {
		t.Fatalf("Degraded error %v should be unreachable-class", deg[0].Err)
	}
	if deg[0].LastSync.IsZero() {
		t.Fatal("Degraded LastSync is zero")
	}
	if cur.Retries() == 0 {
		t.Fatal("degrading to stale spent no retries — the policy never ran")
	}
	if !n.remotes["mit"].down.Load() {
		t.Fatal("degraded peer was not marked down")
	}

	// A second stale query skips probing the down peer entirely: it
	// degrades without spending any of its retry allowance.
	rows2, cur2 := answerRows(t, n, stale)
	if !rows2.Equal(warm) {
		t.Fatal("second degraded query diverged")
	}
	if len(cur2.Degraded()) != 1 || cur2.Retries() != 0 {
		t.Fatalf("down-peer fast path: degraded=%d retries=%d, want 1/0",
			len(cur2.Degraded()), cur2.Retries())
	}
}

func TestDegradedPeerRejoins(t *testing.T) {
	n, fl, served := flakyChainNetwork(t)
	q := cq.MustParse("q(T) :- course(T, S)")
	req := Request{Peer: "berkeley", Query: q, Retry: testRetry()}
	answerRows(t, n, req)

	fl.kill("mit", true)
	if err := served["mit"].Insert("subject", relation.Tuple{relation.SV("Robotics"), relation.IV(25)}); err != nil {
		t.Fatal(err)
	}
	stale := req
	stale.AllowStale = true
	answerRows(t, n, stale)
	if !n.remotes["mit"].down.Load() {
		t.Fatal("peer not marked down")
	}

	// The node comes back: the background prober notices within its
	// cadence and clears the down flag.
	fl.kill("mit", false)
	deadline := time.Now().Add(2 * time.Second)
	for n.remotes["mit"].down.Load() {
		if time.Now().After(deadline) {
			t.Fatal("prober never noticed the peer's return")
		}
		time.Sleep(time.Millisecond)
	}

	// The next query re-syncs in full: fresh answers include the write
	// that happened during the outage, and nothing is degraded.
	rows, cur := answerRows(t, n, stale)
	if len(cur.Degraded()) != 0 {
		t.Fatalf("rejoined peer still degraded: %+v", cur.Degraded())
	}
	if rows.Len() != 5 {
		t.Fatalf("post-rejoin answers = %d, want 5 (outage-time write visible)", rows.Len())
	}
}

func TestDegradedMidFetch(t *testing.T) {
	// The peer answers its freshness probe but dies during the relation
	// scan — degradation must also catch failures between probe and fetch.
	n, fl, served := flakyChainNetwork(t)
	q := cq.MustParse("q(T) :- course(T, S)")
	req := Request{Peer: "berkeley", Query: q, Retry: testRetry()}
	warm, _ := answerRows(t, n, req)

	if err := served["mit"].Insert("subject", relation.Tuple{relation.SV("Robotics"), relation.IV(25)}); err != nil {
		t.Fatal(err)
	}
	fl.killScans("mit", true) // probe sees the new fingerprint, scan fails

	stale := req
	stale.AllowStale = true
	rows, cur := answerRows(t, n, stale)
	if !rows.Equal(warm) {
		t.Fatalf("mid-fetch degradation should serve last-good rows, got %v", rows.Rows())
	}
	deg := cur.Degraded()
	if len(deg) != 1 || deg[0].Peer != "mit" {
		t.Fatalf("Degraded() = %+v, want mit", deg)
	}
	if !n.remotes["mit"].down.Load() {
		t.Fatal("mid-fetch failure did not mark the peer down")
	}

	// Without AllowStale the same failure is a typed error.
	n.remotes["mit"].down.Store(false) // clear for the fresh-only attempt
	if _, err := n.Query(context.Background(), req); !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("fresh-only mid-fetch failure: err = %v, want ErrPeerUnreachable", err)
	}
}

func TestDegradationNeverMasksDeterministicErrors(t *testing.T) {
	// A version mismatch means the peer is alive but misconfigured;
	// serving stale data would hide that. It must fail even with
	// AllowStale set.
	n, _, _ := flakyChainNetwork(t)
	vt := &versionMismatchTransport{}
	// Swap mit's transport for one that reports a version mismatch.
	n.remotes["mit"].tr = vt
	q := cq.MustParse("q(T) :- course(T, S)")
	req := Request{Peer: "berkeley", Query: q, Retry: testRetry(), AllowStale: true}
	if _, err := n.Query(context.Background(), req); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("version mismatch was absorbed: err = %v", err)
	}
	if n.remotes["mit"].down.Load() {
		t.Fatal("a deterministic failure must not mark the peer down")
	}
}

type versionMismatchTransport struct{ Transport }

func (v *versionMismatchTransport) State(context.Context, string) (PeerState, error) {
	return PeerState{}, fmt.Errorf("%w: speaks wire version 99", ErrVersionMismatch)
}

func TestRemovePeerStopsProber(t *testing.T) {
	n, fl, _ := flakyChainNetwork(t)
	q := cq.MustParse("q(T) :- course(T, S)")
	req := Request{Peer: "berkeley", Query: q, Retry: testRetry()}
	answerRows(t, n, req)

	fl.kill("mit", true)
	stale := req
	stale.AllowStale = true
	answerRows(t, n, stale)
	rp := n.remotes["mit"]
	if !rp.down.Load() {
		t.Fatal("peer not marked down")
	}
	rp.proberMu.Lock()
	running := rp.proberStop != nil
	rp.proberMu.Unlock()
	if !running {
		t.Fatal("no prober running for the down peer")
	}
	if err := n.RemovePeer("mit"); err != nil {
		t.Fatal(err)
	}
	rp.proberMu.Lock()
	stopped := rp.proberStop == nil
	rp.proberMu.Unlock()
	if !stopped {
		t.Fatal("RemovePeer left the prober running")
	}
	// The network keeps serving what remains reachable.
	rows, cur := answerRows(t, n, stale)
	if len(cur.Degraded()) != 0 {
		t.Fatalf("removed peer still reported degraded: %+v", cur.Degraded())
	}
	if rows.Len() != 2 { // berkeley's own rows; every mapping chain ran through mit
		t.Fatalf("answers after removal = %d, want 2", rows.Len())
	}
}

func TestBudgetExhaustionSurfacesTyped(t *testing.T) {
	n, fl, _ := flakyChainNetwork(t)
	q := cq.MustParse("q(T) :- course(T, S)")
	pol := testRetry()
	pol.MaxAttempts = 10
	pol.Budget = 1
	answerRows(t, n, Request{Peer: "berkeley", Query: q, Retry: pol})

	fl.kill("mit", true)
	_, err := n.Query(context.Background(), Request{Peer: "berkeley", Query: q, Retry: pol})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("spent budget should surface ErrBudgetExhausted, got %v", err)
	}
	// With AllowStale the same exhaustion degrades instead.
	rows, cur := answerRows(t, n, Request{Peer: "berkeley", Query: q, Retry: pol, AllowStale: true})
	if rows.Len() != 4 || len(cur.Degraded()) != 1 {
		t.Fatalf("budget-exhausted degrade: rows=%d degraded=%d, want 4/1", rows.Len(), len(cur.Degraded()))
	}
}
