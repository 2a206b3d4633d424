package pdms

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/relation"
)

// wideChainNetwork is chainNetwork with enough rows per peer that the
// reformulated union's branches carry real work.
func wideChainNetwork(t *testing.T, rows int) *Network {
	t.Helper()
	n := chainNetwork(t)
	for peer, rel := range map[string]string{
		"berkeley": "course", "mit": "subject", "oxford": "offering",
	} {
		p := n.Peer(peer)
		for i := 0; i < rows; i++ {
			if err := p.Insert(rel, relation.Tuple{
				relation.SV(fmt.Sprintf("%s-%d", peer, i)),
				relation.IV(int64(i)),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return n
}

// waitNetGoroutines fails the test if the goroutine count has not
// returned to the baseline within the deadline.
func waitNetGoroutines(t *testing.T, base int, when string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%s: %d goroutines alive, baseline %d — goroutine leak",
				when, runtime.NumGoroutine(), base)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCursorCloseStopsPull closes a cursor after a few pulls, and
// cancels another mid-stream: the pull coroutine behind Next must exit
// either way — no goroutine may survive Close.
func TestCursorCloseStopsPull(t *testing.T) {
	n := wideChainNetwork(t, 300)
	q := cq.MustParse("q(L) :- offering(L, S)")
	// Warm the caches so the goroutine baseline is taken with no cold
	// machinery in flight.
	if _, err := n.Answer("oxford", q, ReformOptions{}); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	cur, err := n.Query(context.Background(), Request{Peer: "oxford", Query: q})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5 && cur.Next(); i++ {
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("Close mid-stream: %v", err)
	}
	waitNetGoroutines(t, base, "after mid-stream Close")

	// And cancellation instead of Close.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cur, err = n.Query(ctx, Request{Peer: "oxford", Query: q})
	if err != nil {
		t.Fatal(err)
	}
	pulled := 0
	for cur.Next() {
		if pulled++; pulled == 3 {
			cancel()
		}
	}
	if err := cur.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cursor err = %v, want context.Canceled", err)
	}
	cur.Close()
	waitNetGoroutines(t, base, "after mid-stream cancel")
}

// TestQuerySingleflightColdMiss: a thundering herd of identical cold
// queries must reformulate exactly once — the coalesced waiters reuse
// the leader's entry — and every client still gets the full answer.
func TestQuerySingleflightColdMiss(t *testing.T) {
	n := wideChainNetwork(t, 50)
	q := cq.MustParse("q(L) :- offering(L, S)")
	const clients = 16
	start := make(chan struct{})
	answers := make([]*relation.Relation, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			<-start
			cur, err := n.Query(context.Background(), Request{Peer: "oxford", Query: q})
			if err != nil {
				errs[i] = err
				return
			}
			answers[i], errs[i] = cur.Materialize()
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !answers[i].Equal(answers[0]) {
			t.Fatalf("client %d got a different answer set", i)
		}
	}
	if answers[0].Len() == 0 {
		t.Fatal("no answers")
	}
	if got := n.reformCalls.Load(); got != 1 {
		t.Errorf("herd of %d cold clients ran %d reformulations, want exactly 1",
			clients, got)
	}
}

// TestQuerySingleflightLeaderFailureDoesNotPoison: a leader whose
// context dies mid-search must not cache its failure — the next caller
// becomes a fresh leader and succeeds.
func TestQuerySingleflightLeaderFailureDoesNotPoison(t *testing.T) {
	n := meshNetwork(t, 4)
	q := cq.MustParse("q(X) :- r(X)")
	opts := ReformOptions{MaxDepth: 6, NoVisitedPruning: true,
		NoContainmentPruning: true, NoLAV: true, MaxRewritings: 1 << 20}
	// The mid-cancel context passes Query's entry check, then dies at
	// the search's first poll — the leader fails after registering.
	_, err := n.Query(&midCancelCtx{Context: context.Background()},
		Request{Peer: "p0", Query: q, Reform: opts})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	n.mu.Lock()
	inflight := len(n.reformInflight)
	n.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("%d inflight entries left after leader failure", inflight)
	}
	cur, err := n.Query(context.Background(), Request{Peer: "p0", Query: q, Reform: opts})
	if err != nil {
		t.Fatalf("query after failed leader: %v", err)
	}
	cur.Close()
	if got := n.reformCalls.Load(); got != 2 {
		t.Errorf("reformulations = %d, want 2 (failed leader + retry)", got)
	}
}

// notifyDoneCtx signals entered the first time Done is evaluated —
// which a reformulateOnce waiter does only after it has loaded the
// in-flight call under the lock, making "the waiter is now waiting"
// observable to the test.
type notifyDoneCtx struct {
	context.Context
	entered chan struct{}
	once    sync.Once
}

func (c *notifyDoneCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.entered) })
	return c.Context.Done()
}

// leaderOutcome simulates an in-flight leader for key finishing with
// the given error while a waiter blocks: register, start the waiter,
// wait until it is parked on the call, then complete the call the way
// a real leader does (entry deleted under the lock before done
// closes).
func leaderOutcome(t *testing.T, n *Network, key reformKey, req Request, leaderErr error) error {
	t.Helper()
	call := &reformCall{done: make(chan struct{})}
	n.mu.Lock()
	n.reformInflight[key] = call
	n.mu.Unlock()
	ctx := &notifyDoneCtx{Context: context.Background(), entered: make(chan struct{})}
	got := make(chan error, 1)
	go func() {
		_, err := n.reformulateOnce(ctx, key, req)
		got <- err
	}()
	<-ctx.entered
	n.mu.Lock()
	delete(n.reformInflight, key)
	n.mu.Unlock()
	call.err = leaderErr
	close(call.done)
	return <-got
}

// TestSingleflightWaiterErrorSharing pins the waiter protocol: a
// deterministic leader error (bad query, unknown peer) is shared with
// waiters without re-running the search, while a leader cancellation —
// which says nothing about the query — makes the waiter retry as a
// fresh leader.
func TestSingleflightWaiterErrorSharing(t *testing.T) {
	n := chainNetwork(t)
	q := cq.MustParse("q(L) :- offering(L, S)")
	req := Request{Peer: "oxford", Query: q}
	key := n.reformCacheKey(req.Peer, req.Query, req.Reform)

	boom := errors.New("boom: deterministic reformulation failure")
	if err := leaderOutcome(t, n, key, req, boom); !errors.Is(err, boom) {
		t.Errorf("waiter err = %v, want the leader's %v shared", err, boom)
	}
	if got := n.reformCalls.Load(); got != 0 {
		t.Errorf("deterministic leader error re-ran the search %d times, want 0", got)
	}

	if err := leaderOutcome(t, n, key, req, context.Canceled); err != nil {
		t.Errorf("waiter after cancelled leader: %v, want retry success", err)
	}
	if got := n.reformCalls.Load(); got != 1 {
		t.Errorf("reformulations after cancelled-leader retry = %d, want 1", got)
	}
	n.mu.Lock()
	cached := n.reformCache[key] != nil
	n.mu.Unlock()
	if !cached {
		t.Error("retrying waiter did not populate the cache")
	}
}
