package pdms

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/relation"
)

// remoteChainNetwork builds the same berkeley→mit→oxford chain as
// chainNetwork, but with mit and oxford hosted behind a Loopback
// transport: berkeley is local, the other two are RemotePeers whose
// replicas sync over the wire codecs. The served peers are returned so
// tests can mutate "the remote node" directly.
func remoteChainNetwork(t *testing.T) (*Network, *Loopback, map[string]*Peer) {
	t.Helper()
	n := NewNetwork()
	peers := chainPeers(t)
	b, m, o := peers[0], peers[1], peers[2]
	lb := NewLoopback(m, o)
	if err := n.AddPeer(b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mit", "oxford"} {
		if _, err := n.AddRemotePeer(context.Background(), name, lb); err != nil {
			t.Fatal(err)
		}
	}
	linkChain(t, n)
	return n, lb, map[string]*Peer{"mit": m, "oxford": o}
}

// TestRemoteLoopbackMatchesInProcess is the differential anchor at this
// layer: the chain with two remote peers answers exactly like the
// all-local chainNetwork.
func TestRemoteLoopbackMatchesInProcess(t *testing.T) {
	local := chainNetwork(t)
	remote, _, _ := remoteChainNetwork(t)
	for _, q := range []struct{ peer, q string }{
		{"oxford", "q(L) :- offering(L, S)"},
		{"berkeley", "q(T) :- course(T, S)"},
		{"mit", "q(N) :- subject(N, E)"},
	} {
		want, err := local.Answer(q.peer, cq.MustParse(q.q), ReformOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := remote.Answer(q.peer, cq.MustParse(q.q), ReformOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Answers.Equal(want.Answers) {
			t.Errorf("%s %s: remote answers %v, in-process %v",
				q.peer, q.q, got.Answers.Rows(), want.Answers.Rows())
		}
	}
}

// TestRemoteFetchLazyAndFingerprintDriven asserts the fetch path's two
// core properties: warm queries move no tuples, and a remote data
// change re-scans only the relation whose fingerprint moved.
func TestRemoteFetchLazyAndFingerprintDriven(t *testing.T) {
	n, lb, served := remoteChainNetwork(t)
	q := cq.MustParse("q(T) :- course(T, S)")
	res, err := n.Answer("berkeley", q, ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 4 {
		t.Fatalf("cold answers = %d, want 4", res.Answers.Len())
	}
	cold := lb.Scans()
	if cold != 2 { // mit.subject + oxford.offering, exactly once each
		t.Fatalf("cold scans = %d, want 2", cold)
	}
	if _, err := n.Answer("berkeley", q, ReformOptions{}); err != nil {
		t.Fatal(err)
	}
	if warm := lb.Scans(); warm != cold {
		t.Fatalf("warm query scanned remotely: %d scans, want %d", warm, cold)
	}
	// A remote insert moves mit.subject's fingerprint; only that
	// relation is re-fetched, and the stale plan over the old replica is
	// not reused — the new row appears in the answers.
	if err := served["mit"].Insert("subject", relation.Tuple{relation.SV("Robotics"), relation.IV(25)}); err != nil {
		t.Fatal(err)
	}
	res, err = n.Answer("berkeley", q, ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 5 {
		t.Fatalf("answers after remote insert = %d, want 5", res.Answers.Len())
	}
	if got := lb.Scans(); got != cold+1 {
		t.Fatalf("scans after remote insert = %d, want %d (only the changed relation)", got, cold+1)
	}
}

// TestRemoteAddSchemaInvalidatesPlans is the regression test for the
// InvalidateCaches/bumpTopology interaction: a schema added on the
// remote node must flow through the same atomic topoVersion path a
// local AddSchema takes, so reformulations (and the plans hanging off
// them) cached before the remote change are never reused.
func TestRemoteAddSchemaInvalidatesPlans(t *testing.T) {
	n, _, served := remoteChainNetwork(t)
	q := cq.MustParse("q(N) :- subject(N, E)")
	if _, err := n.Answer("mit", q, ReformOptions{}); err != nil {
		t.Fatal(err)
	}
	calls := n.reformCalls.Load()
	topo := n.topoVersion.Load()
	// Warm repeat: cached, no new reformulation.
	if _, err := n.Answer("mit", q, ReformOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := n.reformCalls.Load(); got != calls {
		t.Fatalf("warm repeat reformulated: %d calls, want %d", got, calls)
	}
	// The remote node grows a relation and stores data in it.
	oxford := served["oxford"]
	oxford.AddSchema(relation.NewSchema("seminar", relation.Attr("label"), relation.IntAttr("seats")))
	if err := oxford.Insert("seminar", relation.Tuple{relation.SV("Logic Seminar"), relation.IV(8)}); err != nil {
		t.Fatal(err)
	}
	// The next query observes the remote schema change: the mirror gains
	// the relation, topoVersion bumps, and the cached reformulation is
	// re-derived rather than reused.
	if _, err := n.Answer("mit", q, ReformOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := n.topoVersion.Load(); got == topo {
		t.Fatal("remote AddSchema did not bump topoVersion")
	}
	if got := n.reformCalls.Load(); got != calls+1 {
		t.Fatalf("post-AddSchema query reused stale reformulation: %d calls, want %d", got, calls+1)
	}
	if !n.Peer("oxford").HasRelation("seminar") {
		t.Fatal("mirror did not pick up the remote relation")
	}
	// The new relation is immediately mappable and queryable: seminars
	// surface at mit through a fresh mapping.
	mp := glav.MustNew("sem2m", "oxford", cq.MustParse("m(L, S) :- seminar(L, S)"),
		"mit", cq.MustParse("m(L, S) :- subject(L, S)"))
	if err := n.AddMapping(mp); err != nil {
		t.Fatal(err)
	}
	res, err := n.Answer("mit", q, ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !keySet(res.Answers.Rows())[relation.Tuple{relation.SV("Logic Seminar")}.Key()] {
		t.Fatalf("remote seminar missing from answers: %v", res.Answers.Rows())
	}
}

// TestRemoteInvalidateCachesForcesRefetch asserts the out-of-band
// hammer reaches the distributed tier: after InvalidateCaches the next
// query re-scans referenced remote relations even though their
// fingerprints never moved.
func TestRemoteInvalidateCachesForcesRefetch(t *testing.T) {
	n, lb, _ := remoteChainNetwork(t)
	q := cq.MustParse("q(T) :- course(T, S)")
	want, err := n.Answer("berkeley", q, ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cold := lb.Scans()
	n.InvalidateCaches()
	got, err := n.Answer("berkeley", q, ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lb.Scans() <= cold {
		t.Fatal("InvalidateCaches did not force a remote refetch")
	}
	if !got.Answers.Equal(want.Answers) {
		t.Fatal("refetched answers differ")
	}
}

// TestRemoteConcurrentQueries hammers the serialized remote prepare
// path from many goroutines; every client must see the full answer set
// (run under -race to check the replica/mirror synchronization).
func TestRemoteConcurrentQueries(t *testing.T) {
	n, _, _ := remoteChainNetwork(t)
	q := cq.MustParse("q(T) :- course(T, S)")
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := n.Answer("berkeley", q, ReformOptions{})
			if err != nil {
				errs <- err
				return
			}
			if res.Answers.Len() != 4 {
				errs <- fmt.Errorf("concurrent client saw %d answers, want 4", res.Answers.Len())
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// cancellingTransport wraps a Transport and cancels a context after the
// first delivered batch of a scan — a deterministic mid-stream abort.
type cancellingTransport struct {
	mirrorOnly
	cancel context.CancelFunc
}

func (c *cancellingTransport) Scan(ctx context.Context, peer, rel string, deliver func([]relation.Tuple) error) error {
	first := true
	return c.Transport.Scan(ctx, peer, rel, func(batch []relation.Tuple) error {
		if err := deliver(batch); err != nil {
			return err
		}
		if first {
			first = false
			c.cancel()
		}
		return nil
	})
}

// TestRemoteCancelMidFetch cancels the request context between scan
// batches: Query must return the context error, and the network must
// keep serving afterwards.
func TestRemoteCancelMidFetch(t *testing.T) {
	n := NewNetwork()
	remote := NewPeer("big", relation.NewSchema("course", relation.Attr("title"), relation.IntAttr("size")))
	for i := 0; i < 3*DefaultScanBatch; i++ {
		if err := remote.Insert("course", relation.Tuple{relation.SV(fmt.Sprintf("c%04d", i)), relation.IV(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ct := &cancellingTransport{mirrorOnly: mirrorOnly{NewLoopback(remote)}, cancel: cancel}
	if _, err := n.AddRemotePeer(context.Background(), "big", ct); err != nil {
		t.Fatal(err)
	}
	local := NewPeer("here", relation.NewSchema("class", relation.Attr("t"), relation.IntAttr("s")))
	if err := n.AddPeer(local); err != nil {
		t.Fatal(err)
	}
	mp := glav.MustNew("r2l", "big", cq.MustParse("m(T, S) :- course(T, S)"),
		"here", cq.MustParse("m(T, S) :- class(T, S)"))
	if err := n.AddMapping(mp); err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse("q(T) :- class(T, S)")
	if _, err := n.Query(ctx, Request{Peer: "here", Query: q}); err == nil {
		t.Fatal("mid-fetch cancellation did not surface")
	}
	// A fresh context completes the fetch and sees every remote row.
	res, err := n.Answer("here", q, ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 3*DefaultScanBatch {
		t.Fatalf("post-cancel answers = %d, want %d", res.Answers.Len(), 3*DefaultScanBatch)
	}
}

// TestAddRemotePeerUnknownName fails fast when the transport serves no
// such peer.
func TestAddRemotePeerUnknownName(t *testing.T) {
	n := NewNetwork()
	lb := NewLoopback()
	if _, err := n.AddRemotePeer(context.Background(), "ghost", lb); err == nil {
		t.Fatal("unknown remote peer accepted")
	}
	if n.NumPeers() != 0 {
		t.Fatal("failed AddRemotePeer left a peer behind")
	}
}

// TestRemoveRemotePeer drops the mirror and the remote registration;
// queries keep working over what remains.
func TestRemoveRemotePeer(t *testing.T) {
	n, _, _ := remoteChainNetwork(t)
	if err := n.RemovePeer("oxford"); err != nil {
		t.Fatal(err)
	}
	if len(n.remotes) != 1 {
		t.Fatalf("remotes after removal = %d, want 1", len(n.remotes))
	}
	res, err := n.Answer("berkeley", cq.MustParse("q(T) :- course(T, S)"), ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 3 { // berkeley's 2 + mit's 1
		t.Fatalf("answers after oxford left = %d, want 3", res.Answers.Len())
	}
}
