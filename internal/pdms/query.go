package pdms

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sort"
	"strings"
	"time"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/relation"
)

// This file is the request-scoped serving API: Network.Query reformulates
// once, compiles (or reuses cached) plans, and hands back a Cursor that
// streams deduplicated union tuples on demand. Nothing is materialized
// until the caller pulls; cancelling the request context aborts both the
// reformulation search and the join trees; Limit stops the whole union
// after N distinct answers. Answer/LocalAnswer are materializing wrappers
// over this path.

// Request bundles everything one query-answering call needs.
type Request struct {
	// Peer names the peer in whose schema Query is posed.
	Peer string
	// Query is the conjunctive query, in Peer's vocabulary.
	Query cq.Query
	// Reform tunes the reformulation search.
	Reform ReformOptions
	// Limit stops the cursor after this many distinct answers
	// (0 = stream every answer). The engine aborts the remaining join
	// trees the moment the limit is reached, so existence queries
	// (Limit=1) cost a tiny fraction of full materialization.
	Limit int
	// Retry governs the remote operations of this request's preparation
	// (freshness probes, schema syncs, relation scans). The zero value
	// keeps the pre-policy behavior: one attempt per operation, no
	// per-attempt timeout, unlimited budget. See DefaultRetryPolicy for
	// a serving-path configuration.
	Retry RetryPolicy
	// AllowStale opts into graceful degradation: when a remote peer
	// cannot be freshened within the retry policy (unreachable, hung,
	// or out of budget), the request serves that peer's last-good
	// replica snapshots instead of failing, reports it via
	// Cursor.Degraded, and marks the peer down — stale-tolerant queries
	// skip probing it entirely while a background prober watches for
	// its return (cadence: Network.DownProbeInterval). Off by default:
	// unreachable peers fail the query with a typed ErrPeerUnreachable
	// error rather than silently serving stale replicas as fresh.
	AllowStale bool
	// Ship selects the plan-shipping tier for stale remote relations:
	// ShipNever (the zero value — mirror exactly as before), ShipAuto
	// (the statistics model decides per relation), or ShipAlways (ship
	// every eligible relation). Which path each relation actually took
	// is reported by Cursor.SyncPaths.
	Ship ShipMode
}

// Cursor streams the deduplicated answers of one Query call. Tuples are
// pulled on demand: the union's join trees only run as far as the
// consumer asks. The reformulation statistics are available immediately;
// ExecTime is populated once the cursor is drained or closed. A Cursor
// is bound to the database snapshot current at Query time and is not
// safe for concurrent use (distinct Cursors are independent).
//
// Usage:
//
//	cur, err := net.Query(ctx, pdms.Request{Peer: "uw", Query: q})
//	...
//	defer cur.Close()
//	for cur.Next() {
//	    use(cur.Tuple())
//	}
//	if err := cur.Err(); err != nil { ... }
type Cursor struct {
	ctx    context.Context
	plans  []*cq.Plan
	schema relation.Schema
	limit  int

	rewritings []cq.Query
	stats      ReformStats
	reformTime time.Duration
	degraded   []DegradedPeer
	retries    int
	syncPaths  []SyncPath

	execStart time.Time
	execTime  time.Duration

	next    func() (relation.Tuple, error, bool)
	stop    func()
	cur     relation.Tuple
	err     error
	started bool
	closed  bool
	drained bool
}

// errCursorClosed reports Materialize on a cursor Closed mid-stream —
// partial consumption must not masquerade as an empty answer set.
var errCursorClosed = errors.New("pdms: cursor closed before being drained")

// Schema returns the schema answer tuples conform to. It is available
// before the first Next call, and identical whether or not the query
// has any answers.
func (c *Cursor) Schema() relation.Schema { return c.schema }

// Rewritings returns the reformulations the cursor unions over.
func (c *Cursor) Rewritings() []cq.Query {
	out := make([]cq.Query, len(c.rewritings))
	copy(out, c.rewritings)
	return out
}

// Stats returns the reformulation statistics (available immediately).
func (c *Cursor) Stats() ReformStats { return c.stats }

// Degraded reports the remote peers this request could not freshen and
// therefore serves from their last-good replica snapshots, in peer-name
// order. It is empty unless the request set AllowStale and a peer was
// actually unreachable; a non-empty result means the answer set may
// omit or predate those peers' latest data. Available immediately.
func (c *Cursor) Degraded() []DegradedPeer {
	out := make([]DegradedPeer, len(c.degraded))
	copy(out, c.degraded)
	return out
}

// Retries reports how many remote-operation retries request
// preparation spent under the request's RetryPolicy (0 on an all-local
// network or a clean prepare). Available immediately.
func (c *Cursor) Retries() int { return c.retries }

// SyncPaths reports, per remote relation this request had to refresh,
// which path the refresh took — "ship" (remote sub-plan execution),
// "push" (replica already current from a live push subscription),
// "delta" (change-record catch-up), or "scan" (full replica re-scan) —
// in (peer, relation) order. Empty when every referenced replica was
// already current. Available immediately.
func (c *Cursor) SyncPaths() []SyncPath {
	out := make([]SyncPath, len(c.syncPaths))
	copy(out, c.syncPaths)
	return out
}

// Explain renders the compiled execution plan of every rewriting branch
// — the join order the planner chose, each atom's access path, and the
// cost estimates — without executing anything. Branches print in
// reformulation order; limited executions run them cheapest-first.
func (c *Cursor) Explain() string {
	if len(c.plans) == 0 {
		return "no rewriting reaches stored data\n"
	}
	var b strings.Builder
	total := 0.0
	for _, p := range c.plans {
		total += p.EstimatedCost()
	}
	fmt.Fprintf(&b, "union of %d branch(es), est total cost %.1f rows\n",
		len(c.plans), total)
	for i, p := range c.plans {
		fmt.Fprintf(&b, "branch %d: %s", i, p.Explain())
	}
	for _, sp := range c.syncPaths {
		fmt.Fprintf(&b, "sync %s.%s via %s\n", sp.Peer, sp.Rel, sp.Path)
	}
	return b.String()
}

// ReformTime returns how long request preparation took — reformulation
// plus, on a cold cursor, compiling the rewritings' plans (available
// immediately).
func (c *Cursor) ReformTime() time.Duration { return c.reformTime }

// ExecTime returns how long execution took; it is zero until the cursor
// has been drained or closed.
func (c *Cursor) ExecTime() time.Duration { return c.execTime }

// Next advances to the next distinct answer, reporting whether one is
// available. It returns false when the answers are exhausted, the limit
// is reached, the context is cancelled, or the cursor is closed; Err
// distinguishes failure from exhaustion.
func (c *Cursor) Next() bool {
	if c.closed || c.err != nil {
		return false
	}
	if !c.started {
		c.start()
	}
	t, err, ok := c.next()
	if !ok || err != nil {
		c.cur = nil
		c.err = err
		if err == nil {
			c.drained = true // exhausted (or limit reached), not aborted
		}
		c.finish()
		return false
	}
	c.cur = t
	return true
}

// Tuple returns the answer Next advanced to. The tuple is owned by the
// caller; the engine never mutates it.
func (c *Cursor) Tuple() relation.Tuple { return c.cur }

// Err returns the error that stopped the cursor, if any. Exhaustion and
// reaching the limit are not errors; cancellation surfaces as ctx.Err().
func (c *Cursor) Err() error { return c.err }

// Close releases the cursor's execution state; it is idempotent and
// returns the same error Err does. Closing mid-stream aborts the
// remaining join trees.
func (c *Cursor) Close() error {
	c.finish()
	c.cur = nil
	return c.err
}

// start lazily builds the pull iterator over the streaming union; the
// coroutine only exists between start and finish.
func (c *Cursor) start() {
	c.started = true
	c.execStart = time.Now()
	if len(c.plans) == 0 {
		c.next = func() (relation.Tuple, error, bool) { return nil, nil, false }
		c.stop = func() {}
		return
	}
	c.next, c.stop = iter.Pull2(cq.UnionTuples(c.ctx, c.plans,
		cq.ExecOptions{Limit: c.limit}))
}

// finish records execution time and stops the pull iterator.
func (c *Cursor) finish() {
	if c.closed {
		return
	}
	c.closed = true
	if c.started {
		c.stop()
		c.execTime = time.Since(c.execStart)
	}
}

// Materialize drains the cursor into a relation and closes it. On a
// fresh cursor it executes push-style — no pull coroutine — which is the
// path Answer uses; on a partially consumed cursor it drains the rest.
// On a cursor already drained without error it returns an empty
// relation of the cursor's schema (Err() == nil is not a failure
// state); a failed cursor returns its error, and a cursor Closed
// mid-stream returns errCursorClosed — partial consumption is not an
// empty answer set.
func (c *Cursor) Materialize() (*relation.Relation, error) {
	if c.closed {
		if c.err != nil {
			return nil, c.err
		}
		if c.drained {
			return relation.NewResult(c.schema), nil
		}
		return nil, errCursorClosed
	}
	if !c.started {
		c.started = true
		c.execStart = time.Now()
		var out *relation.Relation
		if len(c.plans) == 0 {
			out = relation.NewResult(c.schema)
		} else {
			// c.schema is plans[0].HeadSchema() whenever plans exist.
			var err error
			out, err = cq.MaterializeUnion(c.ctx, c.plans,
				cq.ExecOptions{Limit: c.limit})
			if err != nil {
				c.err = err
				c.closed = true
				return nil, err
			}
		}
		c.execTime = time.Since(c.execStart)
		c.closed = true
		c.drained = true
		return out, nil
	}
	out := relation.NewResult(c.schema)
	for c.Next() {
		if err := out.Insert(c.Tuple()); err != nil {
			c.Close()
			return nil, err
		}
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Query reformulates req.Query at req.Peer over the transitive closure
// of mappings and returns a Cursor over the deduplicated union of the
// rewritings' answers. Reformulations and compiled plans are cached
// exactly as for Answer, and a thundering herd of identical cold
// queries coalesces: concurrent misses on one cache key reformulate
// and compile exactly once (the rest wait for the leader). ctx cancels
// the reformulation search, the containment pruning, the remote
// fetches, and — through the cursor — execution itself.
//
// On a network with remote peers the preparation phase additionally
// probes every remote peer without a live push subscription (one cheap
// State round trip each — remote schema growth invalidates caches
// through the same topoVersion path a local AddSchema takes), then
// sends each referenced remote relation whose replica is not current
// down the sync ladder — ship, delta, scan — on a bounded fan-out.
// Remote preparation is serialized per network; execution still runs
// unlocked over the immutable snapshot. An all-local network skips all
// of this — the fast path is unchanged.
func (n *Network) Query(ctx context.Context, req Request) (*Cursor, error) {
	return n.query(ctx, req, nil)
}

// query is Query reading, in place of each remote relation copies
// holds a placed copy of, that copy (AnswerUsingCopies).
func (n *Network) query(ctx context.Context, req Request, copies map[string]*Subscription) (*Cursor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var rs *remoteSync
	if len(n.remotes) > 0 {
		n.remoteMu.Lock()
		defer n.remoteMu.Unlock()
		defer n.wakePushWaiters() // probes and fetches move the fingerprints waiters watch
		rs = &remoteSync{pol: req.Retry, budget: newRetryBudget(req.Retry), allowStale: req.AllowStale}
		if err := n.syncRemotes(ctx, rs); err != nil {
			return nil, err
		}
	}
	// The cache key reads topoVersion after the remote sync, so a
	// reformulation derived before a remote schema change cannot be
	// served for this request.
	key := n.reformCacheKey(req.Peer, req.Query, req.Reform)
	t0 := time.Now()
	e, err := n.reformulateOnce(ctx, key, req)
	if err != nil {
		return nil, err
	}
	c := &Cursor{
		ctx:        ctx,
		limit:      req.Limit,
		rewritings: e.rws,
		stats:      e.stats,
	}
	finishRemote := func() {
		if rs != nil {
			c.retries = int(rs.retried.Load())
			c.degraded = flattenDegraded(rs.degraded)
		}
	}
	if len(e.rws) == 0 {
		// No rewriting reaches stored data: the cursor is empty but its
		// schema still carries the typed head attributes the non-empty
		// path would produce.
		c.schema = cq.HeadSchemaFor(n.GlobalDB(), glav.Qualify(req.Query, req.Peer))
		c.reformTime = time.Since(t0)
		finishRemote()
		return c, nil
	}
	var ships map[string]*relation.Relation
	if len(n.remotes) > 0 {
		// A limited query needs at most Limit answers, so cap what any
		// shipped sub-plan may stream back. Sound because budgets fail
		// typed rather than truncate: a too-tight clamp falls back to
		// mirroring, never drops answers.
		shipBudget := uint64(DefaultShipRowBudget)
		if req.Limit > 0 {
			shipBudget = min(shipBudget, uint64(req.Limit)*shipLimitFactor)
		}
		ships, c.syncPaths, err = n.fetchReferenced(ctx, rs, e.rws, req.Ship, shipBudget)
		if err != nil {
			return nil, err
		}
	}
	over := ships
	if len(copies) > 0 {
		c.rewritings, over = n.readCopies(req.Peer, e.rws, copies, over)
	}
	if len(over) > 0 {
		// Shipped partial replicas and placed copies shadow the global
		// snapshot through a per-request overlay catalog: shipped results
		// never enter a replica, being only sufficient for the request's
		// own rewritings. Plans compiled against request-specific
		// relations could never be reused, so they bypass the cache.
		cat := cq.Overlay{Base: n.GlobalDB(), Over: over}
		c.plans = make([]*cq.Plan, len(c.rewritings))
		for i, rw := range c.rewritings {
			if c.plans[i], err = cq.Compile(cat, rw); err != nil {
				return nil, err
			}
		}
	} else if c.plans, err = e.plansFor(n.GlobalDB()); err != nil {
		return nil, err
	}
	c.schema = c.plans[0].HeadSchema()
	// Preparation time includes plan compilation (a cold-cursor cost the
	// old Answer counted too), so cold and warm timings stay comparable.
	c.reformTime = time.Since(t0)
	finishRemote()
	return c, nil
}

// flattenDegraded renders the per-peer degradation records in
// deterministic peer-name order (nil in, nil out — the all-local path
// allocates nothing).
func flattenDegraded(m map[string]*DegradedPeer) []DegradedPeer {
	if len(m) == 0 {
		return nil
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]DegradedPeer, len(names))
	for i, name := range names {
		out[i] = *m[name]
	}
	return out
}

// LocalQuery returns a cursor over q evaluated against the peer's own
// relations only — a local peer's storage, a remote peer's published
// replicas — the streaming form of LocalAnswer. q, its predicates
// qualified with peer's name, compiles straight against GlobalDB's
// snapshot, so the cursor keeps the Query-time binding even while the
// peer's store mutates under a lazy drain, and it takes no lock.
func (n *Network) LocalQuery(ctx context.Context, peer string, q cq.Query) (*Cursor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, ok := n.schemasOf(peer); !ok {
		return nil, errUnknownPeer(peer)
	}
	plan, err := cq.Compile(n.GlobalDB(), glav.Qualify(q, peer))
	if err != nil {
		return nil, err
	}
	return &Cursor{
		ctx:    ctx,
		plans:  []*cq.Plan{plan},
		schema: plan.HeadSchema(),
	}, nil
}
