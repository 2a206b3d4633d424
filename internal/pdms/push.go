package pdms

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/glav"
	"repro/internal/relation"
)

// This file implements push-based replication: instead of every query
// polling the serving peers with a State probe, a coordinator registers
// a subscription and the serving side pushes each committed change
// record to all subscribers — one-to-many fan-out for read scaling. The
// serving half is the ChangeFeed (a per-subscriber bounded queue fed at
// commit time under the serving write lock, never blocking it) plus
// Peer.FeedSubscribe; the coordinator half is Network.StartPush, whose
// loop applies pushed records to mirror replicas through the same
// verified apply the delta rung uses, keeps the relation records
// (remote.go's relSync) current so queries skip the State probe
// entirely, and propagates applied changes through the updategram path
// into placed materialized views. A subscriber that drains too slowly
// is evicted (typed ErrSubscriptionGap) back to the poll path and may
// resubscribe once its replicas healed.

// ErrSubscriptionGap reports a push subscription whose change feed
// overflowed: the serving side evicted the subscriber rather than block
// its write lock or buffer unboundedly, and records were dropped from
// the stream. The subscriber falls back to the poll path (its stale
// replicas heal through the ordinary fingerprint-driven fetch) and may
// resubscribe.
var ErrSubscriptionGap = errors.New("pdms: push subscription gap")

// ErrFeedClosed reports a read from a change feed whose subscription
// ended — the subscriber unsubscribed (closed its connection) or the
// serving peer shut down.
var ErrFeedClosed = errors.New("pdms: change feed closed")

// ErrPushUnsupported reports a Subscribe against an endpoint that
// cannot push: the serving side has push disabled (including pre-push
// servers, which answer the unknown op with a bad-request error). The
// coordinator stays on the poll path — this is terminal, unlike a gap.
var ErrPushUnsupported = errors.New("pdms: push subscription unsupported")

// DefaultFeedQueue is the per-subscriber bounded queue depth: how many
// change records a feed buffers before the subscriber is declared too
// slow and evicted with a gap. Deep enough to ride out transient drain
// stalls, shallow enough that one dead subscriber bounds the serving
// peer's memory.
const DefaultFeedQueue = 1024

// ChangeFeed is one subscriber's bounded queue of committed change
// records. The serving peer appends to it at commit time while holding
// its serving write lock — push never blocks: on overflow the feed is
// marked gapped and its buffer dropped, evicting the subscriber to the
// poll path instead of stalling the writer. The reader side (a
// transport's push loop) drains whole batches with Next.
type ChangeFeed struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []relation.ChangeRecord
	max    int
	gap    bool
	closed bool
}

// newChangeFeed returns an empty feed buffering at most max records.
func newChangeFeed(max int) *ChangeFeed {
	f := &ChangeFeed{max: max}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// push appends one record, never blocking: a full buffer marks the feed
// gapped (dropping what was buffered — the stream is broken either
// way). It reports false once the feed is closed, so the commit-time
// fan-out can deregister it lazily.
func (f *ChangeFeed) push(rec relation.ChangeRecord) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return false
	}
	if f.gap {
		return true // already evicted; drop until the reader notices
	}
	if len(f.buf) >= f.max {
		f.gap = true
		f.buf = nil
		f.cond.Broadcast()
		return true
	}
	f.buf = append(f.buf, rec)
	f.cond.Broadcast()
	return true
}

// Next blocks until records are buffered and drains them all as one
// batch. It returns ErrFeedClosed once Close has been called and
// ErrSubscriptionGap once the feed overflowed; both are terminal.
func (f *ChangeFeed) Next() ([]relation.ChangeRecord, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.buf) == 0 && !f.gap && !f.closed {
		f.cond.Wait()
	}
	if f.closed {
		return nil, ErrFeedClosed
	}
	if f.gap {
		return nil, ErrSubscriptionGap
	}
	batch := f.buf
	f.buf = nil
	return batch, nil
}

// Gapped reports whether the feed overflowed and was evicted.
func (f *ChangeFeed) Gapped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gap
}

// Close ends the subscription: Next returns ErrFeedClosed and the
// serving peer deregisters the feed on its next commit. Idempotent and
// safe from any goroutine (connection readers and context watchers call
// it).
func (f *ChangeFeed) Close() {
	f.mu.Lock()
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// fanout pushes one committed record to every registered feed, dropping
// feeds whose subscribers are gone. Called under p.serveMu's write side
// — push never blocks, so commit latency stays bounded no matter how
// slow a subscriber drains.
func (p *Peer) fanout(rec relation.ChangeRecord) {
	for f := range p.feeds {
		if !f.push(rec) {
			delete(p.feeds, f)
		}
	}
}

// FeedSubscribe registers a push subscription covering every relation
// this peer serves and returns the new feed plus the peer's statistics
// fingerprint at subscribe time — the ack the transport sends so the
// subscriber can compare it against its own replicas. since lists, per
// relation, the mutation version the subscriber last applied: for every
// listed relation the durable log still covers (and whose preloaded
// records fit the queue), the catch-up records are buffered into the
// feed before live records start; relations that cannot be covered
// start from now, and the returned fingerprint tells the subscriber
// they are stale. max bounds the feed's queue (DefaultFeedQueue when
// <= 0).
func (p *Peer) FeedSubscribe(since map[string]uint64, max int) (*ChangeFeed, uint64, []relation.NamedStats) {
	if max <= 0 {
		max = DefaultFeedQueue
	}
	f := newChangeFeed(max)
	p.serveMu.Lock()
	defer p.serveMu.Unlock()
	if p.persist != nil && len(since) > 0 {
		rels := make([]string, 0, len(since))
		for rel := range since {
			rels = append(rels, rel)
		}
		sort.Strings(rels)
		for _, rel := range rels {
			r := p.Store.Get(rel)
			if r == nil || since[rel] >= r.Version() {
				continue
			}
			recs, ok := p.persist.Since(rel, since[rel])
			if !ok || len(f.buf)+len(recs) > max {
				continue // uncoverable or oversized catch-up: poll path heals it
			}
			f.buf = append(f.buf, recs...)
		}
	}
	if p.feeds == nil {
		p.feeds = make(map[*ChangeFeed]struct{})
	}
	p.feeds[f] = struct{}{}
	rels := p.Store.Relations()
	stats := make([]relation.NamedStats, 0, len(rels))
	for _, r := range rels {
		stats = append(stats, relation.NamedStats{Name: r.Schema.Name, Stats: r.Stats()})
	}
	return f, p.SchemaVersion(), stats
}

// FeedCount reports how many push subscriptions are currently
// registered (closed feeds linger until the next commit deregisters
// them lazily).
func (p *Peer) FeedCount() int {
	p.serveMu.RLock()
	defer p.serveMu.RUnlock()
	return len(p.feeds)
}

// Push-loop retry pacing: the resubscribe backoff after a failure
// starts at pushBackoffMin and doubles up to pushBackoffMax.
const (
	pushBackoffMin = 50 * time.Millisecond
	pushBackoffMax = 2 * time.Second
)

// StartPush launches the push subscription manager for one remote peer:
// a goroutine that subscribes through the peer's transport, applies
// pushed change records to the mirror's replicas through the same
// verified apply the delta pull path uses, keeps the remote
// fingerprints current (so queries skip the per-query State probe while
// the subscription is live — see RemotePeer.PushLive), propagates
// applied changes through the updategram path into placed materialized
// views, and resubscribes with backoff after gaps and transport
// failures; a serving node that refuses to push (ErrPushUnsupported)
// ends the manager and the peer stays on the poll path. It returns
// after starting the manager; StopPush (or ctx cancellation) ends it.
// Starting an already-started peer is an error.
func (n *Network) StartPush(ctx context.Context, peer string) error {
	if ctx == nil {
		ctx = context.Background()
	}
	n.remoteMu.RLock()
	rp := n.remotes[peer]
	n.remoteMu.RUnlock()
	if rp == nil {
		return fmt.Errorf("pdms: %q is not a remote peer", peer)
	}
	rp.pushMu.Lock()
	if rp.pushDone != nil {
		rp.pushMu.Unlock()
		return fmt.Errorf("pdms: push already started for %q", peer)
	}
	pctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	rp.pushCancel, rp.pushDone = cancel, done
	rp.pushMu.Unlock()
	go n.pushLoop(pctx, rp, done)
	return nil
}

// StopPush ends the peer's push subscription manager and waits for it
// to exit, so callers can read mirror and view state race-free
// afterwards. A no-op when no manager is running.
func (n *Network) StopPush(peer string) {
	n.remoteMu.RLock()
	rp := n.remotes[peer]
	n.remoteMu.RUnlock()
	if rp != nil {
		rp.stopPush()
	}
}

// stopPush cancels the running push manager, if any, and joins it.
func (rp *RemotePeer) stopPush() {
	rp.pushMu.Lock()
	cancel, done := rp.pushCancel, rp.pushDone
	rp.pushCancel, rp.pushDone = nil, nil
	rp.pushMu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}

// PushLive reports whether a push subscription to this peer is
// currently established — the state in which queries skip the per-query
// State probe, because pushed records keep the fingerprints current.
func (rp *RemotePeer) PushLive() bool { return rp.pushLive.Load() }

// pushLoop is the subscription manager body: subscribe, stream, and on
// failure resubscribe with exponential backoff. A gap increments the
// gap counter and resubscribes from whatever fingerprints the replicas
// are at (the ack plus the poll path heal any distance the gap opened);
// an ErrPushUnsupported refusal is terminal — the peer stays on the
// poll path.
func (n *Network) pushLoop(ctx context.Context, rp *RemotePeer, done chan struct{}) {
	defer close(done)
	defer rp.pushLive.Store(false)
	backoff := pushBackoffMin
	for {
		since := n.pushSince(rp)
		err := rp.tr.Subscribe(ctx, rp.name, since,
			func(st PeerState) error {
				backoff = pushBackoffMin // an established subscription resets pacing
				return n.pushAck(ctx, rp, st)
			},
			func(recs []relation.ChangeRecord) error {
				return n.applyPushBatch(rp, recs)
			})
		rp.pushLive.Store(false)
		if ctx.Err() != nil {
			return
		}
		if errors.Is(err, ErrPushUnsupported) {
			return
		}
		if errors.Is(err, ErrSubscriptionGap) {
			n.pushGaps.Add(1)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff < pushBackoffMax {
			backoff *= 2
		}
	}
}

// pushSince snapshots the versions of the mirror's synced replicas —
// the subscription's catch-up request. Only relations with a synced
// replica are listed: the rest need no catch-up records, they start
// from the subscription point.
func (n *Network) pushSince(rp *RemotePeer) map[string]uint64 {
	n.remoteMu.RLock()
	defer n.remoteMu.RUnlock()
	out := make(map[string]uint64, len(rp.rels))
	for rel := range rp.rels {
		if r, _ := rp.replica(rel); r != nil {
			out[rel] = r.Version()
		}
	}
	return out
}

// pushAck handles the subscription's acknowledging fingerprint: it
// anchors the relation records at the subscribe point (from here on
// pushed records keep them current), folds remote schema growth into
// the mirror, resurrects a down peer, and flips the peer to push-live
// so queries skip the State probe.
func (n *Network) pushAck(ctx context.Context, rp *RemotePeer, st PeerState) error {
	n.remoteMu.RLock()
	synced := rp.schemaVer // the Schemas round trip below must not hold the lock
	n.remoteMu.RUnlock()
	var schemas []relation.Schema
	if st.SchemaVersion != synced {
		var err error
		if schemas, err = rp.tr.Schemas(ctx, rp.name); err != nil {
			return err
		}
	}
	n.remoteMu.Lock()
	defer n.remoteMu.Unlock()
	defer n.wakePushWaiters()
	if schemas != nil {
		rp.foldSchemas(st.SchemaVersion, schemas...)
	}
	rp.observe(st)
	rp.lastSync = time.Now()
	rp.lastErr = nil
	rp.down.Store(false)
	rp.pushLive.Store(true)
	return nil
}

// applyPushBatch applies one pushed change batch under the remote lock:
// schema records grow the mirror, data records advance the relation
// records' latest statistics, and each relation's records advance its
// synced replica through the one verified apply (relation.ApplyChanges)
// — verify, then apply: a run of inserts is checked against the
// replica's own (version, rows) and then appended in place,
// O(records); a run holding a delete is applied to an O(1) snapshot
// that replaces the replica only once every record landed on its
// fingerprint. A run that fails verification leaves the replica
// exactly as it was — still a true image of the origin at its own
// fingerprint, which the advanced latest statistics now mark stale —
// so the next query re-fetches it through the poll path. Applied
// changes then flow into placed materialized views, relation by
// relation, through maintainViews — the records → view-updategram step
// the commit path shares: one global pre-state is taken per batch, when
// the first relation a placed view mentions is about to move, and
// relation k's post-state serves as relation k+1's pre-state.
func (n *Network) applyPushBatch(rp *RemotePeer, recs []relation.ChangeRecord) error {
	n.pushBatches.Add(1)
	n.pushRecords.Add(uint64(len(recs)))
	n.remoteMu.Lock()
	defer n.remoteMu.Unlock()
	defer n.wakePushWaiters()
	rp.lastSync = time.Now()
	// Group data records per relation, preserving arrival order.
	var order []string
	byRel := make(map[string][]relation.ChangeRecord)
	for _, rec := range recs {
		if rec.Op == relation.ChangeSchema {
			// Catch-up records may replay a schema the ack already
			// covered: the version never moves back.
			rp.foldSchemas(max(rp.schemaVer, rec.Ver), rec.Schema)
			continue
		}
		if byRel[rec.Rel] == nil {
			order = append(order, rec.Rel)
		}
		byRel[rec.Rel] = append(byRel[rec.Rel], rec)
	}
	var pre *relation.Database // the updategram pre-state; nil until a replica with views is about to move
	for _, rel := range order {
		relRecs := byRel[rel]
		last := relRecs[len(relRecs)-1]
		state := rp.rel(rel)
		state.latest.Rows, state.latest.Version = last.Rows, last.Ver
		replica, current := rp.replica(rel)
		if replica == nil {
			continue // statistics-only relation: nothing local to maintain
		}
		// Skip records the replica already reflects (catch-up overlap
		// after a resubscribe), then apply the rest verified.
		todo := relRecs
		for len(todo) > 0 && todo[0].Ver <= replica.Version() {
			todo = todo[1:]
		}
		if len(todo) == 0 {
			if current {
				state.pushed = true
			}
			continue
		}
		if pre == nil && n.viewsOver(rp.name, rel) {
			pre = n.globalSnapshot()
		}
		replica, err := replica.ApplyChanges(todo)
		if err != nil {
			// Inconsistent with the replica (e.g. the subscription started
			// past a gap the replica predates): nothing was touched, the
			// replica now reads as stale, and the poll path heals it.
			state.pushed = false
			continue
		}
		rp.mirror.Store.Put(replica) // a no-op unless a delete built a replacement
		state.pushed = true
		if pre != nil {
			post := n.globalSnapshot()
			n.maintainViews(pre, post, glav.QualifiedName(rp.name, rel), todo, nil)
			pre = post
		}
	}
	return nil
}

// PushCounts reports the coordinator-side push totals since creation:
// delivered change batches, records in them, and subscription gaps —
// the observability revere query -watch prints and the fan-out tests
// assert on.
func (n *Network) PushCounts() (batches, records, gaps uint64) {
	return n.pushBatches.Load(), n.pushRecords.Load(), n.pushGaps.Load()
}

// pushWaitChan returns the channel the next wakePushWaiters call
// closes. A waiter takes it before checking its condition, so a state
// change it misses in the check always closes the channel it then
// sleeps on.
func (n *Network) pushWaitChan() <-chan struct{} {
	n.waitMu.Lock()
	defer n.waitMu.Unlock()
	if n.waitCh == nil {
		n.waitCh = make(chan struct{})
	}
	return n.waitCh
}

// wakePushWaiters wakes every WaitPushLive/WaitPushApplied caller to
// re-check its condition. Whoever moves the state they watch — the push
// applier and ack, a query's remote prepare — calls it before releasing
// remoteMu's write side. It allocates nothing while nobody waits.
func (n *Network) wakePushWaiters() {
	n.waitMu.Lock()
	if n.waitCh != nil {
		close(n.waitCh)
		n.waitCh = nil
	}
	n.waitMu.Unlock()
}

// WaitPushLive blocks until the peer's push subscription is established
// (acknowledged by the serving side) or ctx ends. Because transports
// register the change feed before delivering the ack, every mutation
// committed after WaitPushLive returns is guaranteed to be pushed —
// the ordering tests and benches need before mutating the served peer.
func (n *Network) WaitPushLive(ctx context.Context, peer string) error {
	if ctx == nil {
		ctx = context.Background()
	}
	n.remoteMu.RLock()
	rp := n.remotes[peer]
	n.remoteMu.RUnlock()
	if rp == nil {
		return errUnknownPeer(peer)
	}
	for {
		woken := n.pushWaitChan()
		if rp.pushLive.Load() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-woken:
		}
	}
}

// WaitPushApplied blocks until the push path has brought peer's rel to
// at least mutation version ver — applied to the replica, or, when the
// replica could not take the records (none is held, or they failed
// verification), recorded in the latest fingerprint, which makes the
// next query re-fetch it — or ctx ends. The applier wakes it; there is
// no polling. Test and benchmark synchronization for the asynchronous
// push apply.
func (n *Network) WaitPushApplied(ctx context.Context, peer, rel string, ver uint64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		woken := n.pushWaitChan()
		n.remoteMu.RLock()
		rp := n.remotes[peer]
		var cur uint64
		if rp != nil {
			if rec := rp.rels[rel]; rec != nil {
				cur = rec.latest.Version
			}
			if r, _ := rp.replica(rel); r != nil {
				cur = max(cur, r.Version())
			}
		}
		n.remoteMu.RUnlock()
		if rp == nil {
			return errUnknownPeer(peer)
		}
		if cur >= ver {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-woken:
		}
	}
}
