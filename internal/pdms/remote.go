package pdms

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/relation"
)

// This file implements remote peers: participants whose data lives on
// another node, reached through a Transport. A RemotePeer keeps a local
// mirror — the remote schemas plus lazily synced replica relations — so
// reformulation, cost-based planning, and the compiled engine run
// unchanged: they see ordinary relations whose rows happen to have
// streamed in over the wire. What the coordinator knows of each mirrored
// relation is one relSync record. A query refreshes the records by
// probing (syncRemotes) unless a push subscription keeps them current
// (push.go), then sends each referenced relation whose replica is not
// current down the sync ladder — ship, delta, scan (fetchReferenced).

// RemotePeer is a network participant served over a Transport. Its
// mirror peer carries the remote schemas and replica relations; the
// coordinator plans and executes against those replicas, so what stays
// node-local is exactly the query engine — only base tuples cross the
// wire.
type RemotePeer struct {
	name   string
	tr     Transport
	mirror *Peer
	// schemaVer is the last remote schema version synced into the mirror.
	schemaVer uint64
	// rels holds the record of every relation the remote has reported
	// statistics for. Guarded by the owning Network's remoteMu.
	rels map[string]*relSync
	// lastSync is when the last successful freshness probe completed;
	// lastErr is the failure that marked the peer down. Both guarded by
	// the owning Network's remoteMu.
	lastSync time.Time
	lastErr  error
	// down marks a peer whose retries were exhausted: stale-tolerant
	// queries stop probing it (they serve the last-good mirror
	// immediately) until the background prober, or a fresh-only query,
	// reaches it again. Atomic because the prober goroutine reads and
	// clears it without remoteMu.
	down atomic.Bool
	// proberMu guards proberStop, the cancel channel of the background
	// prober launched when the peer goes down. Its own mutex because
	// RemovePeer and the prober itself touch it outside remoteMu.
	proberMu   sync.Mutex
	proberStop chan struct{}
	// pushLive marks an established push subscription: pushed records
	// keep the relation records and replicas current, so queries skip
	// the State probe entirely. Atomic because the subscription manager
	// flips it while queries read it under remoteMu.
	pushLive atomic.Bool
	// pushMu guards the push subscription manager's lifecycle handles
	// (StartPush/StopPush); its own mutex because StopPush joins the
	// manager goroutine, which itself takes remoteMu.
	pushMu     sync.Mutex
	pushCancel context.CancelFunc
	pushDone   chan struct{}
}

// DegradedPeer reports one remote peer a request could not freshen:
// its answers come from the peer's last-good mirror snapshot instead
// of live data. Err is the failure that forced the degradation (an
// ErrPeerUnreachable- or ErrBudgetExhausted-class error); LastSync is
// when the mirror was last verified fresh.
type DegradedPeer struct {
	Peer     string
	Err      error
	LastSync time.Time
}

// Down reports whether the peer is currently marked down — retries
// against it were exhausted and the background prober has not yet seen
// it answer.
func (rp *RemotePeer) Down() bool { return rp.down.Load() }

// Remote returns the named remote peer, or nil — the handle for
// observing down/degraded state from tests and harnesses.
func (n *Network) Remote(name string) *RemotePeer {
	n.remoteMu.RLock()
	defer n.remoteMu.RUnlock()
	return n.remotes[name]
}

// DefaultDownProbeInterval is how often the background prober checks a
// down peer when Network.DownProbeInterval is zero.
const DefaultDownProbeInterval = 2 * time.Second

// markDown records a degradation-class failure against the peer and
// launches the background prober (once per down transition). Caller
// holds n.remoteMu.
func (n *Network) markDown(rp *RemotePeer, err error) {
	rp.lastErr = err
	if rp.down.CompareAndSwap(false, true) {
		n.startProber(rp)
	}
}

// startProber launches the goroutine that periodically probes a down
// peer with one cheap State call until the peer answers (the down flag
// clears and the next query re-syncs in full), the flag is cleared by
// a successful foreground sync, or RemovePeer stops it. Only the flag
// flips here: fingerprints and mirror state stay untouched, so
// recovery always flows through the ordinary sync path under remoteMu.
func (n *Network) startProber(rp *RemotePeer) {
	interval := n.DownProbeInterval
	if interval <= 0 {
		interval = DefaultDownProbeInterval
	}
	stop := make(chan struct{})
	rp.proberMu.Lock()
	if rp.proberStop != nil {
		close(rp.proberStop) // replace a stale prober from a previous outage
	}
	rp.proberStop = stop
	rp.proberMu.Unlock()
	go func() {
		defer func() {
			rp.proberMu.Lock()
			if rp.proberStop == stop {
				rp.proberStop = nil
			}
			rp.proberMu.Unlock()
		}()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if !rp.down.Load() {
					return // a foreground sync already saw the peer answer
				}
				ctx, cancel := context.WithTimeout(context.Background(), interval)
				_, err := rp.tr.State(ctx, rp.name)
				cancel()
				if err == nil {
					rp.down.Store(false)
					return
				}
			}
		}
	}()
}

// stopProber cancels the background prober, if one is running.
func (rp *RemotePeer) stopProber() {
	rp.proberMu.Lock()
	if rp.proberStop != nil {
		close(rp.proberStop)
		rp.proberStop = nil
	}
	rp.proberMu.Unlock()
}

// degradable reports whether a remote-operation failure may be
// absorbed by serving the last-good mirror: unreachable-class errors,
// spent budgets, hung-peer timeouts, and transient failures that
// outlasted their retries qualify. Deterministic protocol errors
// (version mismatch, unknown names) and the caller's own cancellation
// do not — degrading would mask a configuration bug or a dead request.
func degradable(ctx context.Context, err error) bool {
	if err == nil || ctx.Err() != nil {
		return false
	}
	if errors.Is(err, ErrVersionMismatch) {
		return false
	}
	return errors.Is(err, ErrPeerUnreachable) || errors.Is(err, ErrBudgetExhausted) ||
		errors.Is(err, context.DeadlineExceeded) || Retryable(err)
}

// Name returns the remote peer's name.
func (rp *RemotePeer) Name() string { return rp.name }

// relSync is the coordinator's one record of a relation a remote peer
// serves. Freshness is computed, never stored (see replica). Guarded by
// the owning Network's remoteMu.
type relSync struct {
	// latest is the remote's most recent statistics: from the last State
	// probe, or from a subscription ack advanced by each pushed record.
	latest relation.Stats
	// synced marks a mirror replica the sync ladder or the push path
	// filled. InvalidateCaches clears it.
	synced bool
	// pushed marks a replica the push path refreshed since the last
	// query referenced it: Cursor.SyncPaths reports "push" once.
	pushed bool
}

// rel returns the record of the named relation, creating an empty one.
func (rp *RemotePeer) rel(name string) *relSync {
	rec := rp.rels[name]
	if rec == nil {
		rec = &relSync{}
		rp.rels[name] = rec
	}
	return rec
}

// observe records a State response — a probe or a subscription ack —
// as the latest statistics of every relation it lists.
func (rp *RemotePeer) observe(st PeerState) {
	for _, ns := range st.Relations {
		rp.rel(ns.Name).latest = ns.Stats
	}
}

// replica returns rel's mirror replica when the sync ladder or the push
// path filled it (nil otherwise), and whether it is current: its own
// (Version, Len) equals the latest (Version, Rows). A scan stamps the
// probed version onto rows that may have been read after a later
// commit; such a replica reads as stale, the conservative answer.
// Caller holds the owning Network's remoteMu.
func (rp *RemotePeer) replica(rel string) (r *relation.Relation, current bool) {
	rec := rp.rels[rel]
	if rec == nil || !rec.synced {
		return nil, false
	}
	r = rp.mirror.Store.Get(rel)
	return r, r.Version() == rec.latest.Version && r.Len() == rec.latest.Rows
}

// foldSchemas grows the mirror by every schema it lacks — through
// Peer.AddSchema, whose topoVersion bump retires reformulations cached
// before the remote change — and records ver as the remote schema
// version the mirror reflects. Caller holds the owning Network's
// remoteMu write side.
func (rp *RemotePeer) foldSchemas(ver uint64, schemas ...relation.Schema) {
	for _, s := range schemas {
		if !rp.mirror.HasRelation(s.Name) {
			rp.mirror.AddSchema(s)
		}
	}
	rp.schemaVer = ver
}

// fanOut calls do(i) for every i in [0, n) on a bounded pool — the
// remote analogue of the PR 3 union worker pool's GOMAXPROCS cap (remote
// operations are network-bound, so a small multiple) — and returns once
// every call has returned. A single item runs inline: no goroutine.
func fanOut(n int, do func(i int)) {
	if n == 1 {
		do(0)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(n, 2*runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(i)
			}
		}()
	}
	wg.Wait()
}

// AddRemotePeer registers a peer whose data is served by tr under the
// given name: the remote schemas are fetched and mirrored locally, and
// from then on Network.Query keeps the mirror's replicas fresh,
// fetching lazily — only relations the query's rewritings actually
// reference, only when their replica is not current. Like AddPeer it
// requires external synchronization with readers. The transport is
// owned by the caller (one transport may serve many peers); RemovePeer
// does not close it.
func (n *Network) AddRemotePeer(ctx context.Context, name string, tr Transport) (*RemotePeer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, dup := n.peers[name]; dup {
		return nil, fmt.Errorf("pdms: duplicate peer %q", name)
	}
	st, err := tr.State(ctx, name)
	if err != nil {
		return nil, fmt.Errorf("pdms: remote peer %s state: %w", name, err)
	}
	schemas, err := tr.Schemas(ctx, name)
	if err != nil {
		return nil, fmt.Errorf("pdms: remote peer %s schemas: %w", name, err)
	}
	mirror := NewPeer(name, schemas...)
	mirror.mirror = true
	if err := n.AddPeer(mirror); err != nil {
		return nil, err
	}
	rp := &RemotePeer{
		name:      name,
		tr:        tr,
		mirror:    mirror,
		schemaVer: st.SchemaVersion,
		rels:      make(map[string]*relSync, len(st.Relations)),
		lastSync:  time.Now(),
	}
	rp.observe(st)
	if n.remotes == nil {
		n.remotes = make(map[string]*RemotePeer)
	}
	n.remotes[name] = rp
	return rp, nil
}

// remoteSync is one request's remote preparation: the retry policy and
// shared budget its remote operations run under, the retries they
// spent, whether it may serve stale mirrors, and the peers it degraded
// (nil until the first).
type remoteSync struct {
	pol        RetryPolicy
	budget     *retryBudget
	allowStale bool
	degraded   map[string]*DegradedPeer
	retried    atomic.Int64
}

// addDegraded records that the request serves rp from its last-good
// mirror because of err.
func (rs *remoteSync) addDegraded(rp *RemotePeer, err error) {
	if rs.degraded == nil {
		rs.degraded = make(map[string]*DegradedPeer)
	}
	rs.degraded[rp.name] = &DegradedPeer{Peer: rp.name, Err: err, LastSync: rp.lastSync}
}

// retry runs op under the request's retry policy and budget, counting
// the retries it spent. Safe for concurrent use.
func (rs *remoteSync) retry(ctx context.Context, op func(context.Context) error) error {
	r, err := retryOp(ctx, rs.pol, rs.budget, op)
	rs.retried.Add(int64(r))
	return err
}

// degrade absorbs a failed remote operation against rp by serving rp's
// last-good mirror, when the request allows stale answers and err is
// degradation-class: rp joins the request's degraded set (once) and is
// marked down, so the background prober takes over. It reports whether
// err was absorbed. Caller holds n.remoteMu and serializes calls.
func (n *Network) degrade(ctx context.Context, rs *remoteSync, rp *RemotePeer, err error) bool {
	if !rs.allowStale || !degradable(ctx, err) {
		return false
	}
	if rs.degraded[rp.name] == nil {
		rs.addDegraded(rp, err)
		n.markDown(rp, err)
	}
	return true
}

// syncRemotes refreshes the relation records of every remote peer
// without a live push subscription with one State round trip each, and
// folds remote schema growth into the mirror. A peer whose probe
// exhausts its retries fails the whole request unless it degrades
// (n.degrade); peers already down are not probed at all on the
// stale-tolerant path — their queries pay zero retry latency. Caller
// holds n.remoteMu.
func (n *Network) syncRemotes(ctx context.Context, rs *remoteSync) error {
	// names is allocated on first use: when every peer is push-live, the
	// query probes nothing and allocates nothing here.
	var names []string
	for name, rp := range n.remotes {
		if rp.pushLive.Load() {
			// Live push subscription: pushed records keep this peer's
			// records (and schema) current, so the probe would learn
			// nothing — the watch path's zero-State-probe property.
			continue
		}
		if rs.allowStale && rp.down.Load() {
			// Known-down peer: skip the probe, serve the last-good mirror.
			rs.addDegraded(rp, rp.lastErr)
			continue
		}
		if names == nil {
			names = make([]string, 0, len(n.remotes))
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil
	}
	slices.Sort(names)
	// Probe concurrently: the States are independent reads of distinct
	// peers, and serializing them would make every query's prepare
	// latency linear in remote peers × round-trip time. Mirror mutation
	// stays on this goroutine (which holds remoteMu's write side).
	states := make([]PeerState, len(names))
	errs := make([]error, len(names))
	fanOut(len(names), func(i int) {
		rp := n.remotes[names[i]]
		errs[i] = rs.retry(ctx, func(actx context.Context) error {
			var err error
			states[i], err = rp.tr.State(actx, names[i])
			return err
		})
	})
	for i, name := range names {
		rp, st, err := n.remotes[name], states[i], errs[i]
		if err == nil && st.SchemaVersion != rp.schemaVer {
			var schemas []relation.Schema
			err = rs.retry(ctx, func(actx context.Context) error {
				var serr error
				schemas, serr = rp.tr.Schemas(actx, name)
				return serr
			})
			if err == nil {
				rp.foldSchemas(st.SchemaVersion, schemas...)
			}
		}
		if err != nil {
			if n.degrade(ctx, rs, rp, err) {
				continue
			}
			return fmt.Errorf("pdms: sync remote peer %s: %w", name, err)
		}
		rp.observe(st)
		rp.lastSync = time.Now()
		rp.down.Store(false) // a successful probe resurrects a down peer
	}
	return nil
}

// fetchJob is one relation the sync ladder must refresh. base is the
// replica the ladder or the push path last filled (nil when none has),
// captured while the caller holds remoteMu, because workers must not
// read the mirror store concurrently with replica publishes; its own
// Version is where a delta catch-up starts from.
type fetchJob struct {
	rp   *RemotePeer
	rel  string
	rec  *relSync
	base *relation.Relation
	// ship, when planShips set it, puts the ship rung on the job's
	// ladder: the relation's bound sub-plans, run at the serving peer.
	ship *shipSpec
}

// The sync ladder: the refresh paths a stale relation climbs down, in
// order. A rung refreshes the job's relation (ok), declines so the next
// rung tries (ok=false with a nil error: the serving node refused typed,
// or the cheap path does not apply), or fails the job with an error. A
// rung's index names its SyncPath and selects its RemoteSyncCounts
// counter.
const (
	rungShip = iota
	rungDelta
	rungScan
)

var ladder = [...]struct {
	path string
	run  func(ctx context.Context, rs *remoteSync, job *fetchJob) (*relation.Relation, bool, error)
}{
	rungShip:  {"ship", shipRung},
	rungDelta: {"delta", deltaRung},
	rungScan:  {"scan", scanRung},
}

// climb runs job down its ladder — from the ship rung when planShips
// elected it, from the delta rung otherwise — and returns the index of
// the rung that refreshed it or failed. The scan rung never declines.
func (job *fetchJob) climb(ctx context.Context, rs *remoteSync) (int, *relation.Relation, error) {
	i := rungDelta
	if job.ship != nil {
		i = rungShip
	}
	for ; ; i++ {
		rel, ok, err := ladder[i].run(ctx, rs, job)
		if ok || err != nil {
			return i, rel, err
		}
	}
}

// RemoteSyncCounts reports how many replica refreshes the network has
// performed by full relation scan, by delta catch-up, and by shipped
// sub-plan since creation — one counter per sync-ladder rung, the
// observability the durability tests (and revere query's sync line) use
// to prove a restarted durable peer rejoined without re-scans, and the
// differential tests use to prove the ship path actually ran.
func (n *Network) RemoteSyncCounts() (scans, deltas, ships uint64) {
	return n.syncCounts[rungScan].Load(), n.syncCounts[rungDelta].Load(), n.syncCounts[rungShip].Load()
}

// fetchReferenced brings every remote relation the rewritings reference
// up to the latest statistics syncRemotes or the push path recorded:
// each one whose replica is not current becomes a job that climbs the
// sync ladder. A replica is replaced only by a complete scan, or
// advanced by a delta catch-up that verified before it applied; either
// moves the global snapshot fingerprint, so plans compiled from the
// stale replica are recompiled, never reused. Degraded peers are
// skipped: their replicas deliberately stay at the last-good snapshot.
// Caller holds n.remoteMu.
//
// mode and shipBudget decide which jobs get the ship rung (planShips).
// A shipped relation's partial replica is returned in ships (keyed by
// qualified name) for a per-request catalog overlay — never published
// to the mirror, whose replicas must stay complete. paths records, per
// refreshed relation, which path won, in (peer, relation) order.
func (n *Network) fetchReferenced(ctx context.Context, rs *remoteSync, rws []cq.Query,
	mode ShipMode, shipBudget uint64) (ships map[string]*relation.Relation, paths []SyncPath, err error) {
	var jobs []fetchJob
	queued := make(map[string]bool)
	for _, rw := range rws {
		for _, a := range rw.Body {
			peer, rel := glav.SplitQualified(a.Pred)
			rp := n.remotes[peer]
			if rp == nil || queued[a.Pred] {
				continue // local peer (the global snapshot already has it), or queued
			}
			if rs.degraded[peer] != nil {
				continue // degraded peer: its last-good replicas serve as-is
			}
			queued[a.Pred] = true
			rec := rp.rels[rel]
			if rec == nil {
				continue // mirror schema exists but remote serves no data yet
			}
			base, current := rp.replica(rel)
			if current {
				if rec.pushed {
					rec.pushed = false
					paths = append(paths, SyncPath{Peer: peer, Rel: rel, Path: "push"})
				}
				continue
			}
			rec.pushed = false // stale replica: any push mark predates it
			jobs = append(jobs, fetchJob{rp: rp, rel: rel, rec: rec, base: base})
		}
	}
	if len(jobs) > 0 {
		n.planShips(rws, jobs, mode, shipBudget, rs.degraded)
		var refreshed []SyncPath
		ships, refreshed, err = n.runJobs(ctx, rs, jobs)
		paths = append(paths, refreshed...)
	}
	slices.SortFunc(paths, func(a, b SyncPath) int {
		return cmp.Or(strings.Compare(a.Peer, b.Peer), strings.Compare(a.Rel, b.Rel))
	})
	return ships, paths, err
}

// runJobs climbs every job down its ladder on the fan-out and handles
// each result as it lands, under one lock: a peer whose job fails
// mid-query degrades (covering peers that die between the probe and the
// fetch) and is marked down before its queued siblings start, so they
// do not spend retries too; the first failure that cannot degrade
// cancels the jobs still running.
func (n *Network) runJobs(ctx context.Context, rs *remoteSync, jobs []fetchJob) (ships map[string]*relation.Relation, paths []SyncPath, firstErr error) {
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex
	fanOut(len(jobs), func(i int) {
		job := &jobs[i]
		rung, rel, err := 0, (*relation.Relation)(nil), fctx.Err()
		if err == nil && job.rp.down.Load() {
			// The peer went down while this job queued (another of its
			// jobs exhausted retries): don't spend ours too.
			err = fmt.Errorf("%w: peer %s marked down", ErrPeerUnreachable, job.rp.name)
		}
		if err == nil {
			rung, rel, err = job.climb(fctx, rs)
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err != nil:
			if !n.degrade(ctx, rs, job.rp, err) && firstErr == nil {
				firstErr = fmt.Errorf("pdms: fetch %s.%s: %w", job.rp.name, job.rel, err)
				cancel()
			}
			return
		case rung == rungShip:
			if firstErr != nil {
				return
			}
			if ships == nil {
				ships = make(map[string]*relation.Relation)
			}
			ships[glav.QualifiedName(job.rp.name, job.rel)] = rel
		default:
			// A completed refresh is recorded even when a sibling's failure
			// fails the request: a delta catch-up has already advanced the
			// replica in place, and its record must move with it.
			job.rp.mirror.Store.Put(rel)
			job.rec.synced = true
		}
		n.syncCounts[rung].Add(1)
		paths = append(paths, SyncPath{Peer: job.rp.name, Rel: job.rel, Path: ladder[rung].path})
	})
	return ships, paths, firstErr
}

// deltaRung catches a synced replica up from the serving peer's change
// log instead of re-reading the relation. It declines when there is no
// synced replica (so an un-synced relation costs no Delta call), the
// serving node cannot cover the range, the records stop short of the
// probed version, or they fail verification — relation.ApplyChanges
// checks a run before it touches anything, so the scan rung finds the
// replica exactly as it was. On success the replica is job.base advanced
// in place, unless the run held a delete. A transport error fails the
// job: a scan against the same unreachable peer would only spend more
// retries. The in-place advance races with nothing: the request holds
// remoteMu's write side and each relation has one job, and cursors
// already running read snapshots the appends cannot reach.
func deltaRung(ctx context.Context, rs *remoteSync, job *fetchJob) (*relation.Relation, bool, error) {
	if job.base == nil {
		return nil, false, nil
	}
	var recs []relation.ChangeRecord
	var covered bool
	if err := rs.retry(ctx, func(actx context.Context) error {
		var err error
		recs, covered, err = job.rp.tr.Delta(actx, job.rp.name, job.rel, job.base.Version())
		return err
	}); err != nil {
		return nil, false, err
	}
	if !covered || len(recs) == 0 || recs[len(recs)-1].Ver < job.rec.latest.Version {
		return nil, false, nil
	}
	dst, err := job.base.ApplyChanges(recs)
	if err != nil {
		return nil, false, nil // inconsistent records: the scan is the truth
	}
	return dst, true, nil
}

// scanRung re-reads the whole relation into a fresh replica. Each
// attempt buffers the streamed tuples and, once the stream has ended,
// builds the replica with one InsertBatch — a bulk load that sizes the
// rows, sketches and dictionary once, so column statistics accrue and
// the cost-based planner orders joins from remote cardinalities. A cut
// stream builds nothing, and a retry starts from an empty buffer: a
// dropped scan's partial tuples never leak into the replica. The buffer
// is presized from the probed row count, capped at scanPresizeRows
// because the remote party chose that number; past the cap it grows by
// append. The replica is stamped with the probed version — the
// fingerprint it is recorded at, where the next catch-up starts from.
func scanRung(ctx context.Context, rs *remoteSync, job *fetchJob) (*relation.Relation, bool, error) {
	rows := make([]relation.Tuple, 0, min(max(job.rec.latest.Rows, 0), scanPresizeRows))
	var dst *relation.Relation
	if err := rs.retry(ctx, func(actx context.Context) error {
		rows = rows[:0]
		if err := job.rp.tr.Scan(actx, job.rp.name, job.rel, func(batch []relation.Tuple) error {
			rows = append(rows, batch...)
			return nil
		}); err != nil {
			return err
		}
		dst = relation.New(job.rp.mirror.Schema(job.rel))
		return dst.InsertBatch(rows)
	}); err != nil {
		return nil, false, err
	}
	dst.RestoreVersion(job.rec.latest.Version)
	return dst, true, nil
}

// scanPresizeRows caps how many rows of a scan buffer a State probe's
// claimed row count may reserve ahead of the bytes that carry them.
const scanPresizeRows = 1 << 16
