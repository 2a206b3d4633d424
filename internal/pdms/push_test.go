package pdms

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/relation"
	"repro/internal/view"
)

// sortedWire renders rows in a canonical order through the tuple-batch
// wire codec — the byte-identical comparison every push differential
// uses.
func sortedWire(rows []relation.Tuple) []byte {
	out := append([]relation.Tuple(nil), rows...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return relation.EncodeTupleBatch(out)
}

func insRec(ver uint64) relation.ChangeRecord {
	return relation.ChangeRecord{Op: relation.ChangeInsert, Rel: "r", Ver: ver,
		Rows: int(ver), Tuple: relation.Tuple{relation.SV(fmt.Sprintf("t%d", ver))}}
}

// TestChangeFeedDrainClose pins the feed's reader semantics: buffered
// records drain as one batch, a blocked Next is unblocked by Close with
// the typed terminal error, and push after Close reports false (the
// lazy-deregistration signal).
func TestChangeFeedDrainClose(t *testing.T) {
	f := newChangeFeed(8)
	if !f.push(insRec(1)) || !f.push(insRec(2)) {
		t.Fatal("push into an open feed reported closed")
	}
	batch, err := f.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || batch[0].Ver != 1 || batch[1].Ver != 2 {
		t.Fatalf("drained batch = %+v, want the 2 pushed records in order", batch)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := f.Next()
		errc <- err
	}()
	f.Close()
	if err := <-errc; !errors.Is(err, ErrFeedClosed) {
		t.Fatalf("Next on closed feed: err = %v, want ErrFeedClosed", err)
	}
	if f.push(insRec(3)) {
		t.Error("push after Close reported the feed still live")
	}
	f.Close() // idempotent
}

// TestChangeFeedOverflowGap pins eviction: the push that overflows the
// bounded queue marks the feed gapped and drops its buffer, Next
// reports the typed gap, and later pushes are swallowed (true, so the
// feed stays registered until the reader notices) rather than blocking.
func TestChangeFeedOverflowGap(t *testing.T) {
	f := newChangeFeed(2)
	f.push(insRec(1))
	f.push(insRec(2))
	if f.gapped() {
		t.Fatal("feed gapped before overflowing")
	}
	if !f.push(insRec(3)) {
		t.Fatal("overflowing push reported the feed closed")
	}
	if !f.gapped() {
		t.Fatal("overflow did not gap the feed")
	}
	if _, err := f.Next(); !errors.Is(err, ErrSubscriptionGap) {
		t.Fatalf("Next on gapped feed: err = %v, want ErrSubscriptionGap", err)
	}
	if !f.push(insRec(4)) {
		t.Error("post-gap push reported closed — must drop silently instead")
	}
	if _, err := f.Next(); !errors.Is(err, ErrSubscriptionGap) {
		t.Fatalf("gap is not terminal: err = %v", err)
	}
}

// TestFanoutNeverBlocksServing is the slow-subscriber guarantee: with
// two stalled single-slot subscribers registered, a burst of commits
// completes promptly (the write lock is never held hostage), both feeds
// are evicted with gaps, and a closed feed is deregistered lazily by
// the next commit.
func TestFanoutNeverBlocksServing(t *testing.T) {
	p := NewPeer("p", relation.NewSchema("r", relation.Attr("x")))
	f1, _, _ := p.FeedSubscribe(nil, 1)
	f2, _, _ := p.FeedSubscribe(nil, 1)
	if got := p.FeedCount(); got != 2 {
		t.Fatalf("FeedCount = %d, want 2", got)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 64; i++ {
			if err := p.Insert("r", relation.Tuple{relation.SV(fmt.Sprintf("v%02d", i))}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("commits blocked behind stalled subscribers")
	}
	if !f1.gapped() || !f2.gapped() {
		t.Error("stalled single-slot feeds were not evicted with a gap")
	}
	f1.Close()
	if err := p.Insert("r", relation.Tuple{relation.SV("post-close")}); err != nil {
		t.Fatal(err)
	}
	if got := p.FeedCount(); got != 1 {
		t.Errorf("FeedCount after closing one feed = %d, want 1 (lazy deregistration)", got)
	}
}

// TestFeedSubscribeCatchUp pins the durable catch-up preload: a
// subscription listing a stale fingerprint gets the covering change
// records buffered before live ones, an up-to-date fingerprint gets
// nothing, an oversized catch-up is skipped (the ack fingerprint and
// poll path heal it), and an in-memory peer never preloads.
func TestFeedSubscribeCatchUp(t *testing.T) {
	p, err := OpenDurablePeer("d", t.TempDir(), relation.NewSchema("r", relation.Attr("x")))
	if err != nil {
		t.Fatal(err)
	}
	defer p.ClosePersist()
	for _, v := range []string{"a", "b", "c"} {
		if err := p.Insert("r", relation.Tuple{relation.SV(v)}); err != nil {
			t.Fatal(err)
		}
	}
	ver := p.Store.Get("r").Version()

	behind, _, stats := p.FeedSubscribe(map[string]uint64{"r": ver - 2}, 0)
	defer behind.Close()
	if len(stats) != 1 || stats[0].Stats.Rows != 3 {
		t.Fatalf("subscribe ack stats = %+v, want r with 3 rows", stats)
	}
	recs, err := behind.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Tuple[0].S != "b" || recs[1].Tuple[0].S != "c" {
		t.Fatalf("catch-up records = %+v, want the b and c inserts", recs)
	}
	if recs[len(recs)-1].Ver != ver {
		t.Fatalf("last catch-up record at version %d, want %d", recs[len(recs)-1].Ver, ver)
	}

	current, _, _ := p.FeedSubscribe(map[string]uint64{"r": ver}, 0)
	defer current.Close()
	tiny, _, _ := p.FeedSubscribe(map[string]uint64{"r": 0}, 2) // 3-record catch-up > queue of 2: skipped
	defer tiny.Close()
	if err := p.Insert("r", relation.Tuple{relation.SV("live")}); err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]*ChangeFeed{"up-to-date": current, "oversized": tiny} {
		recs, err := f.Next()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(recs) != 1 || recs[0].Tuple[0].S != "live" {
			t.Errorf("%s subscription got %+v, want only the live insert", name, recs)
		}
	}

	mem := NewPeer("m", relation.NewSchema("r", relation.Attr("x")))
	if err := mem.Insert("r", relation.Tuple{relation.SV("a")}); err != nil {
		t.Fatal(err)
	}
	f, _, _ := mem.FeedSubscribe(map[string]uint64{"r": 0}, 0)
	defer f.Close()
	if err := mem.Insert("r", relation.Tuple{relation.SV("fresh")}); err != nil {
		t.Fatal(err)
	}
	recs, err = f.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Tuple[0].S != "fresh" {
		t.Errorf("in-memory subscription got %+v, want only the post-subscribe insert", recs)
	}
}

// TestPushDifferentialLoopback is the loopback push differential: with
// live subscriptions to both remote peers, served-side mutations reach
// the coordinator's replicas and placed materialized views with zero
// State probes and zero re-scans, the query's sync paths report "push",
// and three extents agree byte-identically under the sorted wire
// encoding — the push-maintained view, a full re-derivation over the
// coordinator's global database, and the all-local oracle. The oracle
// is built over the very peers lb serves, so each change is written
// once: the commit both feeds the push subscribers and maintains the
// oracle's placed views. A second raw subscriber on the same serving
// peer checks the one-to-many fan-out delivers every record.
func TestPushDifferentialLoopback(t *testing.T) {
	n, lb, served := remoteChainNetwork(t)
	local := chainNetworkOver(t, n.Peer("berkeley"), served["mit"], served["oxford"])
	q := cq.MustParse("q(T) :- course(T, S)")

	// Baseline query fills the replicas (cold scans), so view refreshes
	// and the later push replay have a complete base.
	base, err := n.Answer("berkeley", q, ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantBase, err := local.Answer("berkeley", q, ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sortedWire(base.Answers.Rows()), sortedWire(wantBase.Answers.Rows())) {
		t.Fatal("baseline remote answers differ from the all-local oracle")
	}

	defs := []string{
		"v(N, E) :- mit.subject(N, E)",
		"w(N) :- mit.subject(N, E), berkeley.course(N, S)",
	}
	pushSubs := make([]*Subscription, len(defs))
	localSubs := make([]*Subscription, len(defs))
	for i, def := range defs {
		if pushSubs[i], err = n.Subscribe("berkeley", fmt.Sprintf("mv%d", i), cq.MustParse(def)); err != nil {
			t.Fatal(err)
		}
		if localSubs[i], err = local.Subscribe("berkeley", fmt.Sprintf("mv%d", i), cq.MustParse(def)); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, peer := range []string{"mit", "oxford"} {
		if err := n.StartPush(ctx, peer); err != nil {
			t.Fatal(err)
		}
		defer n.StopPush(peer)
	}
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	defer wcancel()
	for _, peer := range []string{"mit", "oxford"} {
		if err := n.WaitPushLive(wctx, peer); err != nil {
			t.Fatalf("push to %s never went live: %v", peer, err)
		}
	}

	// Second consumer of mit's feed: the raw one-to-many subscriber.
	var rawMu sync.Mutex
	var raw []relation.ChangeRecord
	acked := make(chan struct{})
	rawDone := make(chan error, 1)
	go func() {
		rawDone <- lb.Subscribe(ctx, "mit", nil,
			func(PeerState) error { close(acked); return nil },
			func(recs []relation.ChangeRecord) error {
				rawMu.Lock()
				raw = append(raw, recs...)
				rawMu.Unlock()
				return nil
			})
	}()
	select {
	case <-acked:
	case <-time.After(30 * time.Second):
		t.Fatal("raw subscriber never acked")
	}

	statesBase, scansBase, wireBase := lb.States(), lb.Scans(), lb.WireBytes()

	// One write per change, on the served node through the oracle: the
	// inserts through Publish, the delete through Peer.Delete — the same
	// commit either way.
	inserts := []relation.Tuple{
		{relation.SV("Robotics"), relation.IV(25)},
		{relation.SV("Databases"), relation.IV(60)}, // joins berkeley.course in w
		{relation.SV("Compilers"), relation.IV(45)},
	}
	for _, row := range inserts {
		if _, err := local.InsertAndPublish("mit", "subject", row); err != nil {
			t.Fatal(err)
		}
	}
	del := relation.Tuple{relation.SV("AI"), relation.IV(80)}
	if removed, err := served["mit"].Delete("subject", del); err != nil || removed != 1 {
		t.Fatalf("served delete removed %d (%v), want 1", removed, err)
	}

	if err := n.WaitPushApplied(wctx, "mit", "subject", served["mit"].Store.Get("subject").Version()); err != nil {
		t.Fatalf("push never applied the mutations: %v", err)
	}

	// The warm query sees the pushed state without probing or scanning.
	cur, err := n.Query(ctx, Request{Peer: "berkeley", Query: q})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cur.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	pushPaths, scanPaths := 0, 0
	for _, sp := range cur.SyncPaths() {
		switch sp.Path {
		case "push":
			pushPaths++
		case "scan":
			scanPaths++
		}
	}
	cur.Close()
	want, err := local.Answer("berkeley", q, ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sortedWire(got.Rows()), sortedWire(want.Answers.Rows())) {
		t.Errorf("push-propagated answers differ from the all-local oracle:\n got %v\nwant %v",
			got.Rows(), want.Answers.Rows())
	}
	if pushPaths == 0 {
		t.Errorf("no relation took the push sync path: %v", cur.SyncPaths())
	}
	if scanPaths != 0 {
		t.Errorf("push-live query re-scanned %d relations: %v", scanPaths, cur.SyncPaths())
	}
	if got := lb.States(); got != statesBase {
		t.Errorf("push-live query probed State %d times", got-statesBase)
	}
	if got := lb.Scans(); got != scansBase {
		t.Errorf("push-live query scanned %d relations", got-scansBase)
	}
	// Four one-row changes to the coordinator and the raw subscriber:
	// the wire carries change records, not relations — far under a frame.
	if got := lb.WireBytes() - wireBase; got == 0 || got >= 4096 {
		t.Errorf("pushing 4 one-row changes moved %d wire bytes, want O(changed rows): in (0, 4096)", got)
	}

	// Three-way view differential, byte-identical under the wire codec:
	// push-maintained ≡ re-derived from scratch ≡ all-local oracle.
	for i := range defs {
		pushExt := n.viewExtent(pushSubs[i])
		if pushExt == nil {
			t.Fatalf("view %d has no push-maintained extent", i)
		}
		mv := view.NewMaterialized(view.NewView("rederive", cq.MustParse(defs[i])))
		if err := mv.Refresh(n.GlobalDB()); err != nil {
			t.Fatal(err)
		}
		localExt := local.viewExtent(localSubs[i])
		pushEnc := sortedWire(pushExt.Rows())
		if !bytes.Equal(pushEnc, sortedWire(mv.Extent.Rows())) {
			t.Errorf("view %d: push-maintained extent differs from full re-derivation:\n got %v\nwant %v",
				i, pushExt.Rows(), mv.Extent.Rows())
		}
		if !bytes.Equal(pushEnc, sortedWire(localExt.Rows())) {
			t.Errorf("view %d: push-maintained extent differs from the all-local oracle:\n got %v\nwant %v",
				i, pushExt.Rows(), localExt.Rows())
		}
	}

	// The raw subscriber saw every record the coordinator saw: 3 inserts
	// plus 1 delete, in commit order.
	deadline := time.Now().Add(30 * time.Second)
	for {
		rawMu.Lock()
		n := len(raw)
		rawMu.Unlock()
		if n >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("raw subscriber saw %d records, want 4", n)
		}
		time.Sleep(time.Millisecond)
	}
	rawMu.Lock()
	defer rawMu.Unlock()
	if len(raw) != 4 {
		t.Fatalf("raw subscriber saw %d records, want exactly 4", len(raw))
	}
	for i, rec := range raw[:3] {
		if rec.Op != relation.ChangeInsert || rec.Rel != "subject" || rec.Tuple[0].S != inserts[i][0].S {
			t.Errorf("raw record %d = %+v, want insert of %v", i, rec, inserts[i])
		}
	}
	if raw[3].Op != relation.ChangeDelete || raw[3].Tuple[0].S != "AI" {
		t.Errorf("raw record 3 = %+v, want the AI delete", raw[3])
	}
	if batches, records, gaps := n.PushCounts(); batches == 0 || records < 4 || gaps != 0 {
		t.Errorf("PushCounts = %d batches, %d records, %d gaps; want >0, >=4, 0", batches, records, gaps)
	}
}

// TestPushResubscribeAfterGap evicts the coordinator's subscription by
// shrinking the feed to one slot and bursting commits: the manager
// counts the typed gap, resubscribes, and the next query heals the
// replica through the poll path — answers match the all-local oracle
// and a post-gap commit still arrives through the resubscribed stream.
func TestPushResubscribeAfterGap(t *testing.T) {
	n, lb, served := remoteChainNetwork(t)
	lb.FeedQueue = 1
	q := cq.MustParse("q(T) :- course(T, S)")
	if _, err := n.Answer("berkeley", q, ReformOptions{}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := n.StartPush(ctx, "mit"); err != nil {
		t.Fatal(err)
	}
	defer n.StopPush("mit")
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	defer wcancel()
	if err := n.WaitPushLive(wctx, "mit"); err != nil {
		t.Fatal(err)
	}

	var rows []relation.Tuple
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, _, gaps := n.PushCounts(); gaps > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("insert bursts never overflowed the one-slot feed")
		}
		row := relation.Tuple{relation.SV(fmt.Sprintf("burst%05d", len(rows))), relation.IV(int64(len(rows)))}
		if err := served["mit"].Insert("subject", row); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}

	// The manager resubscribes after its backoff; a post-gap commit must
	// flow through the new subscription (observed via the fingerprint,
	// since the gap left the replica itself for the poll path to heal).
	if err := n.WaitPushLive(wctx, "mit"); err != nil {
		t.Fatalf("manager never resubscribed after the gap: %v", err)
	}
	row := relation.Tuple{relation.SV("post-gap"), relation.IV(1)}
	if err := served["mit"].Insert("subject", row); err != nil {
		t.Fatal(err)
	}
	rows = append(rows, row)
	if err := n.WaitPushApplied(wctx, "mit", "subject", served["mit"].Store.Get("subject").Version()); err != nil {
		t.Fatalf("post-gap commit never arrived: %v", err)
	}

	got, err := n.Answer("berkeley", q, ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := chainNetwork(t)
	for _, row := range rows {
		if err := oracle.Peer("mit").Insert("subject", row); err != nil {
			t.Fatal(err)
		}
	}
	want, err := oracle.Answer("berkeley", q, ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sortedWire(got.Answers.Rows()), sortedWire(want.Answers.Rows())) {
		t.Errorf("post-gap answers differ from oracle: got %d rows, want %d",
			got.Answers.Len(), want.Answers.Len())
	}
	if _, _, gaps := n.PushCounts(); gaps == 0 {
		t.Error("gap counter never incremented")
	}
}

// TestStartPushErrors pins the manager's error paths: unknown peers
// fail fast, a node that refuses to push ends the manager on its first
// typed refusal (exactly like a push-disabled TCP server), double
// starts are rejected, and StopPush is an idempotent no-op without a
// manager.
func TestStartPushErrors(t *testing.T) {
	n, _, _ := remoteChainNetwork(t)
	ctx := context.Background()
	if err := n.StartPush(ctx, "ghost"); err == nil {
		t.Error("StartPush for an unknown peer succeeded")
	}

	solo := NewPeer("solo", relation.NewSchema("r", relation.Attr("x")))
	n2 := NewNetwork()
	rp, err := n2.AddRemotePeer(ctx, "solo", mirrorOnly{NewLoopback(solo)})
	if err != nil {
		t.Fatal(err)
	}
	if err := n2.StartPush(ctx, "solo"); err != nil {
		t.Fatal(err) // the refusal is the node's answer, discovered live
	}
	<-rp.pushDone // the refusal is terminal: no resubscribe loop to wait out
	if _, _, gaps := n2.PushCounts(); rp.pushLive.Load() || gaps != 0 {
		t.Errorf("refused subscription: live=%v gaps=%d, want a quiet exit to the poll path", rp.pushLive.Load(), gaps)
	}
	n2.StopPush("solo")

	if err := n.StartPush(ctx, "mit"); err != nil {
		t.Fatal(err)
	}
	if err := n.StartPush(ctx, "mit"); err == nil {
		t.Error("double StartPush succeeded")
	}
	n.StopPush("mit")
	if err := n.StartPush(ctx, "mit"); err != nil {
		t.Fatalf("StartPush after StopPush: %v", err)
	}
	n.StopPush("mit")
	n.StopPush("mit")   // idempotent
	n.StopPush("ghost") // unknown peer: no-op
}

// budgetTap records the row budget of every sub-plan shipped through it.
type budgetTap struct {
	*Loopback
	mu      sync.Mutex
	budgets []uint64
}

func (b *budgetTap) ExecPlan(ctx context.Context, peer string, sp relation.SubPlan,
	deliver func([]relation.Tuple) error) error {
	b.mu.Lock()
	b.budgets = append(b.budgets, sp.RowBudget)
	b.mu.Unlock()
	return b.Loopback.ExecPlan(ctx, peer, sp, deliver)
}

func (b *budgetTap) taken() []uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := append([]uint64(nil), b.budgets...)
	b.budgets = nil
	return out
}

// clampNet wires home (local: a selective dim plus the fact vocabulary)
// to src (remote: factRows fact rows over 10 keys, behind a budgetTap),
// the small-scale cold-remote-join fixture of the ship tests.
func clampNet(t *testing.T, factRows int) (*Network, *budgetTap) {
	t.Helper()
	src := NewPeer("src", relation.NewSchema("fact", relation.Attr("key"), relation.Attr("payload")))
	for i := 0; i < factRows; i++ {
		if err := src.Insert("fact", relation.Tuple{
			relation.SV(fmt.Sprintf("k%d", i%10)), relation.SV(fmt.Sprintf("p%04d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	home := NewPeer("home",
		relation.NewSchema("fact", relation.Attr("key"), relation.Attr("payload")),
		relation.NewSchema("dim", relation.Attr("key"), relation.Attr("label")))
	for k := 0; k < 3; k++ {
		if err := home.Insert("dim", relation.Tuple{
			relation.SV(fmt.Sprintf("k%d", k)), relation.SV(fmt.Sprintf("l%d", k))}); err != nil {
			t.Fatal(err)
		}
	}
	tap := &budgetTap{Loopback: NewLoopback(src)}
	n := NewNetwork()
	if err := n.AddPeer(home); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddRemotePeer(context.Background(), "src", tap); err != nil {
		t.Fatal(err)
	}
	m := glav.MustNew("s2h", "src", cq.MustParse("m(K, P) :- fact(K, P)"),
		"home", cq.MustParse("m(K, P) :- fact(K, P)"))
	if err := n.AddMapping(m); err != nil {
		t.Fatal(err)
	}
	return n, tap
}

func clampRequest(limit int) Request {
	return Request{
		Peer:   "home",
		Query:  cq.MustParse("q(P, L) :- fact(K, P), dim(K, L)"),
		Reform: ReformOptions{MaxDepth: 3},
		Ship:   ShipAlways,
		Limit:  limit,
	}
}

// TestShipLimitClampsRowBudget is the regression pin for the Limit →
// RowBudget clamp: a limited query ships its sub-plans with budget
// Limit × shipLimitFactor, an unlimited query ships the default budget,
// and a huge Limit never raises the budget past it.
func TestShipLimitClampsRowBudget(t *testing.T) {
	n, tap := clampNet(t, 50) // ~15 rows per 3-key ship: well under every budget
	run := func(limit int, want uint64) {
		t.Helper()
		n.InvalidateCaches()
		cur, err := n.Query(context.Background(), clampRequest(limit))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cur.Materialize(); err != nil {
			t.Fatal(err)
		}
		cur.Close()
		budgets := tap.taken()
		if len(budgets) == 0 {
			t.Fatalf("limit=%d: no sub-plan shipped", limit)
		}
		for _, got := range budgets {
			if got != want {
				t.Errorf("limit=%d: shipped RowBudget = %d, want %d", limit, got, want)
			}
		}
	}
	run(1, shipLimitFactor)          // Limit 1 clamps to 1 × factor
	run(3, 3*shipLimitFactor)        // clamp scales with Limit
	run(0, DefaultShipRowBudget)     // unlimited: the default backstop
	run(1<<20, DefaultShipRowBudget) // huge Limit never raises the budget
}

// TestShipLimitClampOverflowFallsBack pins the clamp's soundness: when
// the clamped budget is smaller than the shipped result, the serving
// side fails the plan typed, the coordinator falls back to mirroring
// (no ship path in SyncPaths), and the limited answer is still exact —
// a member of the unclamped oracle's answer set.
func TestShipLimitClampOverflowFallsBack(t *testing.T) {
	n, tap := clampNet(t, 1000) // ~300 rows per 3-key ship: overflows Limit 1's budget of 64
	cur, err := n.Query(context.Background(), clampRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := cur.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	paths := make(map[string]int)
	for _, sp := range cur.SyncPaths() {
		paths[sp.Path]++
	}
	cur.Close()
	if budgets := tap.taken(); len(budgets) == 0 {
		t.Fatal("clamped query never attempted a ship")
	} else if budgets[0] != shipLimitFactor {
		t.Fatalf("attempted ship budget = %d, want %d", budgets[0], shipLimitFactor)
	}
	if paths["ship"] != 0 {
		t.Errorf("over-budget ship still reported the ship path: %v", paths)
	}
	if got.Len() != 1 {
		t.Fatalf("Limit 1 returned %d answers", got.Len())
	}

	// The unclamped oracle over the now-mirrored replica.
	n.InvalidateCaches()
	oracle, err := n.Query(context.Background(), Request{
		Peer:   "home",
		Query:  cq.MustParse("q(P, L) :- fact(K, P), dim(K, L)"),
		Reform: ReformOptions{MaxDepth: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := oracle.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	oracle.Close()
	if !keySet(full.Rows())[got.Rows()[0].Key()] {
		t.Errorf("limited answer %v is not in the oracle answer set", got.Rows()[0])
	}
}
