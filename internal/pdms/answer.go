package pdms

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/cq"
	"repro/internal/relation"
)

// AnswerResult bundles a query's answers with reformulation statistics.
type AnswerResult struct {
	Answers    *relation.Relation
	Rewritings []cq.Query
	Stats      ReformStats
	ReformTime time.Duration
	ExecTime   time.Duration
}

// reformKey identifies one Answer/Query workload: the peer, the query
// text, the option set, and the topology version. Schema additions bump
// the topology version too (Peer.AddSchema notifies joined networks),
// so building a key is O(1) — no per-request walk over the peer set.
type reformKey struct {
	peer        string
	query       string
	opts        ReformOptions
	topoVersion uint64
}

// reformEntry caches a reformulation and, per global-DB snapshot, the
// compiled plans of its rewritings — repeated queries skip both the
// mapping-graph search and query compilation. planMu guards the plan
// fields: concurrent cold hits on one entry compile once, not racing
// to fill the slice.
type reformEntry struct {
	rws   []cq.Query
	stats ReformStats

	planMu  sync.Mutex
	plans   []*cq.Plan
	plansDB *relation.Database
	// plansStatsVer is the database's statistics fingerprint the cached
	// plans were ordered by. Snapshot databases are immutable in normal
	// operation (a data change yields a fresh snapshot, hence a fresh
	// plansDB), but the version guards the cache against any path that
	// mutates relations behind a retained database: a plan whose join
	// order came from stale cardinalities is recompiled, never reused.
	plansStatsVer uint64
}

// plansFor returns the rewritings' compiled plans against db, compiling
// at most once per (database snapshot, statistics version): warm hits
// share the cached slice, and concurrent cold hits serialize on the
// entry's mutex so only the first caller compiles. A statistics change
// under the same database invalidates the plans, since the cost-based
// join orders inside them were chosen from the old cardinalities.
func (e *reformEntry) plansFor(db *relation.Database) ([]*cq.Plan, error) {
	sv := db.StatsVersion()
	e.planMu.Lock()
	defer e.planMu.Unlock()
	if e.plansDB == db && e.plansStatsVer == sv {
		return e.plans, nil
	}
	plans := make([]*cq.Plan, len(e.rws))
	for i, rw := range e.rws {
		p, err := cq.Compile(db, rw)
		if err != nil {
			return nil, err
		}
		plans[i] = p
	}
	e.plans, e.plansDB, e.plansStatsVer = plans, db, sv
	return plans, nil
}

// reformCall is one in-flight reformulation that concurrent cold
// misses on the same cache key coalesce on: the leader runs the
// search, everyone else waits on done.
type reformCall struct {
	done chan struct{}
	e    *reformEntry
	err  error
}

// reformulateOnce returns the cache entry for key, running the
// reformulation search at most once across concurrent callers
// (singleflight). A waiter whose leader was cancelled — the leader's
// own context dying mid-search, which says nothing about the query —
// retries rather than inheriting the cancellation; any other leader
// error is deterministic for the key (unknown peer, bad predicate) and
// is shared with every waiter so a herd on a failing query errors once
// instead of re-running the search per client. A waiter whose own ctx
// dies returns promptly.
func (n *Network) reformulateOnce(ctx context.Context, key reformKey, req Request) (*reformEntry, error) {
	for {
		n.mu.Lock()
		if e := n.reformCache[key]; e != nil {
			n.mu.Unlock()
			return e, nil
		}
		if c := n.reformInflight[key]; c != nil {
			n.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if c.err == nil {
				return c.e, nil
			}
			if !errors.Is(c.err, context.Canceled) && !errors.Is(c.err, context.DeadlineExceeded) {
				return nil, c.err
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			continue
		}
		call := &reformCall{done: make(chan struct{})}
		n.reformInflight[key] = call
		n.mu.Unlock()

		n.reformCalls.Add(1)
		rws, stats, err := NewReformulator(n, req.Reform).Reformulate(ctx, req.Peer, req.Query)
		var e *reformEntry
		if err == nil {
			e = &reformEntry{rws: rws, stats: *stats}
		}
		n.mu.Lock()
		delete(n.reformInflight, key)
		if err == nil {
			if len(n.reformCache) >= reformCacheMax {
				n.evictReformLocked()
			}
			n.reformCache[key] = e
		}
		n.mu.Unlock()
		call.e, call.err = e, err
		close(call.done)
		return e, err
	}
}

// reformCacheMax bounds the answer cache (topology changes already
// clear it). On overflow, evictReformLocked drops a random half instead
// of wiping the map, so a hot serving peer keeps most of its warm set.
const reformCacheMax = 4096

func (n *Network) reformCacheKey(peer string, q cq.Query, opts ReformOptions) reformKey {
	return reformKey{
		peer:        peer,
		query:       q.String(),
		opts:        opts,
		topoVersion: n.topoVersion.Load(),
	}
}

// evictReformLocked makes room in the full reformulation cache by
// deleting every other entry in (pseudo-random) map iteration order —
// cheap bounded eviction that preserves roughly half of the warm set,
// unlike the wholesale wipe it replaces. Caller holds n.mu.
func (n *Network) evictReformLocked() {
	drop := true
	for k := range n.reformCache {
		if drop {
			delete(n.reformCache, k)
		}
		drop = !drop
	}
}

// Answer poses q in the given peer's schema and evaluates it over the
// transitive closure of mappings: "the PDMS will find all data sources
// related through this schema via the transitive closure of mappings, and
// it will use these sources to answer the query in the user's schema".
//
// It is the materializing wrapper over the streaming Query path:
// reformulations and compiled plans are cached per (peer, query,
// options) until the mapping graph changes, and answers are drained
// through the batch kernel with one shared dedup set across union
// branches.
func (n *Network) Answer(peer string, q cq.Query, opts ReformOptions) (*AnswerResult, error) {
	return n.answer(peer, q, opts, nil)
}

// answer is Answer reading copies in place of what they copy (query).
func (n *Network) answer(peer string, q cq.Query, opts ReformOptions, copies map[string]*Subscription) (*AnswerResult, error) {
	cur, err := n.query(context.Background(), Request{Peer: peer, Query: q, Reform: opts}, copies)
	if err != nil {
		return nil, err
	}
	answers, err := cur.Materialize()
	if err != nil {
		return nil, err
	}
	return &AnswerResult{
		Answers:    answers,
		Rewritings: cur.Rewritings(),
		Stats:      cur.Stats(),
		ReformTime: cur.ReformTime(),
		ExecTime:   cur.ExecTime(),
	}, nil
}

// LocalAnswer evaluates q against the peer's own storage only — the
// baseline a peer had before joining the mapping web.
func (n *Network) LocalAnswer(peer string, q cq.Query) (*relation.Relation, error) {
	cur, err := n.LocalQuery(context.Background(), peer, q)
	if err != nil {
		return nil, err
	}
	return cur.Materialize()
}

func errUnknownPeer(name string) error {
	return &UnknownPeerError{Name: name}
}

// UnknownPeerError reports a reference to a peer the network lacks.
type UnknownPeerError struct{ Name string }

// Error implements error.
func (e *UnknownPeerError) Error() string { return "pdms: unknown peer " + e.Name }
