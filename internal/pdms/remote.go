package pdms

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
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
// streamed in over the wire. Freshness is fingerprint-driven: every
// Query starts with one cheap State round trip per remote peer, schema
// growth flows into the same atomic topoVersion path local AddSchema
// uses (so cached reformulations die exactly like they do for local
// topology changes), and only referenced relations whose remote
// (version, rows) fingerprint moved are re-scanned — warm queries move
// no tuples.

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
	// fetched maps relation name → the remote fingerprint its replica
	// stands at, which is also the replica's own (Version, Len): a scan
	// stamps it on, the verified apply lands on it. Guarded by the owning
	// Network's remoteMu.
	fetched map[string]remoteFP
	// latestStats holds the per-relation statistics of the most recent
	// State call, kept current by pushed records while a subscription is
	// live: their (Version, Rows) is the fingerprint a replica must match
	// to be fresh (latestFP), and the ship-vs-mirror cost model reads the
	// per-column distinct estimates. Guarded by the owning Network's
	// remoteMu.
	latestStats map[string]relation.Stats
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
	// keep latest/fetched current, so queries skip the State probe
	// entirely. Atomic because the subscription manager flips it while
	// queries read it under remoteMu.
	pushLive atomic.Bool
	// pushFresh marks, per relation, that the push path refreshed the
	// replica since the last query referenced it — the flag behind the
	// "push" entry in Cursor.SyncPaths. Guarded by the owning Network's
	// remoteMu.
	pushFresh map[string]bool
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

// remoteFP is the freshness fingerprint of one remote relation.
type remoteFP struct {
	ver  uint64
	rows int
}

// Name returns the remote peer's name.
func (rp *RemotePeer) Name() string { return rp.name }

// fetchParallelism bounds how many relation scans the fetch path runs
// concurrently — the remote analogue of the PR 3 union worker pool's
// GOMAXPROCS cap (fetches are network-bound, so a small multiple).
func fetchParallelism(jobs int) int {
	par := 2 * runtime.GOMAXPROCS(0)
	if par > jobs {
		par = jobs
	}
	if par < 1 {
		par = 1
	}
	return par
}

// AddRemotePeer registers a peer whose data is served by tr under the
// given name: the remote schemas are fetched and mirrored locally, and
// from then on Network.Query keeps the mirror's replicas fresh,
// fetching lazily — only relations the query's rewritings actually
// reference, only when their remote fingerprint moved. Like AddPeer it
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
	if err := n.AddPeer(mirror); err != nil {
		return nil, err
	}
	rp := &RemotePeer{
		name:        name,
		tr:          tr,
		mirror:      mirror,
		schemaVer:   st.SchemaVersion,
		fetched:     make(map[string]remoteFP),
		latestStats: latestStatsMap(st),
		lastSync:    time.Now(),
		pushFresh:   make(map[string]bool),
	}
	if n.remotes == nil {
		n.remotes = make(map[string]*RemotePeer)
	}
	n.remotes[name] = rp
	return rp, nil
}

// latestFP returns the freshest known remote fingerprint of rel, and
// whether the remote serves it at all. Caller holds the owning
// Network's remoteMu.
func (rp *RemotePeer) latestFP(rel string) (remoteFP, bool) {
	st, known := rp.latestStats[rel]
	return remoteFP{ver: st.Version, rows: st.Rows}, known
}

// latestStatsMap extracts the per-relation statistics of a State
// response: the freshness fingerprints and the ship-vs-mirror cost
// model's input.
func latestStatsMap(st PeerState) map[string]relation.Stats {
	out := make(map[string]relation.Stats, len(st.Relations))
	for _, ns := range st.Relations {
		out[ns.Name] = ns.Stats
	}
	return out
}

// syncRemotes refreshes every remote peer's fingerprint with one State
// round trip each (retried under the request's policy), and folds
// remote schema growth into the mirror via Peer.AddSchema — which
// notifies the joined networks through the same atomic topoVersion
// bump a local schema change takes, so reformulation cache keys
// derived before the remote change can never be reused.
//
// Failure handling is where the request's degradation contract lives:
// a peer whose probe exhausts its retries fails the whole request
// unless allowStale is set, in which case the peer is recorded in
// degraded, marked down (the background prober takes over), and its
// mirror serves whatever the last successful sync left behind. Peers
// already down are not probed at all on the stale-tolerant path —
// their queries pay zero retry latency. retries reports how many
// retries the probes actually spent. Caller holds n.remoteMu.
func (n *Network) syncRemotes(ctx context.Context, pol RetryPolicy, budget *retryBudget,
	allowStale bool, degraded map[string]*DegradedPeer) (retries int, err error) {
	names := make([]string, 0, len(n.remotes))
	for name := range n.remotes {
		rp := n.remotes[name]
		if rp.pushLive.Load() {
			// Live push subscription: pushed records keep this peer's
			// fingerprints (and schema) current, so the probe would learn
			// nothing — the watch path's zero-State-probe property.
			continue
		}
		if allowStale && rp.down.Load() {
			// Known-down peer: skip the probe, serve the last-good mirror.
			degraded[name] = &DegradedPeer{Peer: name, Err: rp.lastErr, LastSync: rp.lastSync}
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	// Probe concurrently: the States are independent reads of distinct
	// peers, and serializing them would make every query's prepare
	// latency linear in remote peers × round-trip time. The bounded
	// fan-out mirrors fetchReferenced's pool; mirror mutation stays on
	// this goroutine (which holds remoteMu's write side).
	states := make([]PeerState, len(names))
	errs := make([]error, len(names))
	var retried atomic.Int64
	probe := func(i int) {
		rp := n.remotes[names[i]]
		r, perr := retryOp(ctx, pol, budget, func(actx context.Context) error {
			st, serr := rp.tr.State(actx, names[i])
			if serr == nil {
				states[i] = st
			}
			return serr
		})
		retried.Add(int64(r))
		errs[i] = perr
	}
	if len(names) == 1 {
		probe(0)
	} else {
		work := make(chan int, len(names))
		for i := range names {
			work <- i
		}
		close(work)
		var wg sync.WaitGroup
		for w := 0; w < fetchParallelism(len(names)); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					probe(i)
				}
			}()
		}
		wg.Wait()
	}
	retries = int(retried.Load())
	for i, name := range names {
		rp, st, perr := n.remotes[name], states[i], errs[i]
		if perr == nil && st.SchemaVersion != rp.schemaVer {
			var schemas []relation.Schema
			r, serr := retryOp(ctx, pol, budget, func(actx context.Context) error {
				var e error
				schemas, e = rp.tr.Schemas(actx, name)
				return e
			})
			retries += r
			if serr != nil {
				perr = serr
			} else {
				for _, s := range schemas {
					if !rp.mirror.HasRelation(s.Name) {
						rp.mirror.AddSchema(s)
					}
				}
				rp.schemaVer = st.SchemaVersion
			}
		}
		if perr != nil {
			if allowStale && degradable(ctx, perr) {
				degraded[name] = &DegradedPeer{Peer: name, Err: perr, LastSync: rp.lastSync}
				n.markDown(rp, perr)
				continue
			}
			return retries, fmt.Errorf("pdms: sync remote peer %s: %w", name, perr)
		}
		rp.latestStats = latestStatsMap(st)
		rp.lastSync = time.Now()
		rp.down.Store(false) // a successful probe resurrects a down peer
	}
	return retries, nil
}

// fetchJob names one stale replica to refresh. When the mirror already
// holds a replica with a recorded fingerprint, base carries that replica
// — whose own (Version, Len) is the fingerprint it was recorded at — so
// the worker can try a delta catch-up before falling back to a full
// scan; base is captured while the caller holds remoteMu, because
// workers must not read the mirror store concurrently with the drain
// loop's replica publishes.
type fetchJob struct {
	rp   *RemotePeer
	rel  string
	want remoteFP
	base *relation.Relation
	// ship, when set, tells the worker to refresh the relation by remote
	// sub-plan execution — streaming O(answers) bytes into a per-request
	// overlay replica — before considering the delta and scan paths.
	ship *shipSpec
}

// RemoteSyncCounts reports how many replica refreshes the network has
// performed by full relation scan, by delta catch-up, and by shipped
// sub-plan since creation — the observability the durability tests (and
// revere query's sync line) use to prove a restarted durable peer
// rejoined without re-scans, and the differential tests use to prove
// the ship path actually ran.
func (n *Network) RemoteSyncCounts() (scans, deltas, ships uint64) {
	return n.remoteScans.Load(), n.remoteDeltas.Load(), n.remoteShips.Load()
}

// fetchReferenced brings every remote relation referenced by the
// rewritings up to date with the fingerprints syncRemotes just
// recorded. Stale replicas are re-scanned concurrently on a bounded
// worker pool (the PR 3 fan-out shape: a job channel, first
// non-absorbable error cancels the rest), each scan retried under the
// request's policy and streaming tuple batches into a fresh relation
// built through Insert so column statistics accrue and the cost-based
// planner orders joins from remote cardinalities. A failed attempt
// discards its partial relation — a replica is replaced only by a
// complete scan, atomically, from this goroutine, or advanced by a
// delta catch-up that verified before it applied (tryDelta); either
// moves the global snapshot fingerprint, so plans compiled from the
// stale replica are recompiled, never reused.
//
// Peers already recorded in degraded are skipped (their replicas
// deliberately stay at the last-good snapshot), and when allowStale
// is set, a peer whose scan exhausts its retries mid-query joins them
// instead of failing the request — covering peers that die between
// the freshness probe and the fetch. Caller holds n.remoteMu.
//
// mode and shipBudget select the plan-shipping tier (ship.go): a stale
// relation the mode elects ships its atoms as bound sub-plans and the
// resulting partial replica is returned in ships (keyed by qualified
// name) for a per-request catalog overlay — never published to the
// mirror, whose replicas must stay complete. A ship the serving side
// rejects (ErrPlanUnsupported-class, including row-budget overflows)
// falls back to the delta/scan paths inside the same job. paths
// records, per refreshed relation, which path won.
func (n *Network) fetchReferenced(ctx context.Context, rws []cq.Query, pol RetryPolicy,
	budget *retryBudget, allowStale bool, degraded map[string]*DegradedPeer,
	mode ShipMode, shipBudget uint64) (retries int, ships map[string]*relation.Relation, paths []SyncPath, err error) {
	var jobs []fetchJob
	queued := make(map[string]bool)
	for _, rw := range rws {
		for _, a := range rw.Body {
			peer, rel := glav.SplitQualified(a.Pred)
			if peer == "" || queued[a.Pred] {
				continue
			}
			rp := n.remotes[peer]
			if rp == nil {
				continue // local peer: the global snapshot already has it
			}
			if degraded[peer] != nil {
				continue // degraded peer: its last-good replicas serve as-is
			}
			queued[a.Pred] = true
			want, known := rp.latestFP(rel)
			if !known {
				continue // mirror schema exists but remote serves no data yet
			}
			job := fetchJob{rp: rp, rel: rel, want: want}
			if got, ok := rp.fetched[rel]; ok {
				if got == want {
					if rp.pushFresh[rel] {
						// The push path refreshed this replica since the last
						// query referenced it: report it, once.
						delete(rp.pushFresh, rel)
						paths = append(paths, SyncPath{Peer: peer, Rel: rel, Path: "push"})
					}
					continue // replica already matches the remote fingerprint
				}
				delete(rp.pushFresh, rel) // stale replica: any push-fresh mark predates it
				// Stale but known: hand the worker the current replica so it
				// can catch up from the serving peer's change log instead of
				// re-scanning.
				job.base = rp.mirror.Store.Get(rel)
			}
			jobs = append(jobs, job)
		}
	}
	if len(jobs) == 0 {
		sort.Slice(paths, func(i, j int) bool {
			if paths[i].Peer != paths[j].Peer {
				return paths[i].Peer < paths[j].Peer
			}
			return paths[i].Rel < paths[j].Rel
		})
		return 0, nil, paths, nil
	}
	n.planShips(rws, jobs, mode, shipBudget, degraded)

	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type fetchResult struct {
		job fetchJob
		rel *relation.Relation
		// got is the fingerprint the refreshed replica stands at — want
		// for a scan, possibly fresher for a delta that caught records
		// written after the State probe.
		got remoteFP
		// viaDelta marks a replica advanced by change records rather than
		// rebuilt by a full scan (feeds the RemoteSyncCounts observability).
		viaDelta bool
		// overlay marks a partial replica built by shipped sub-plan
		// execution: it goes into the per-request ships overlay, never the
		// mirror store.
		overlay bool
		err     error
	}
	work := make(chan fetchJob, len(jobs))
	for _, job := range jobs {
		work <- job
	}
	close(work)
	results := make(chan fetchResult)
	var retried atomic.Int64
	for w := 0; w < fetchParallelism(len(jobs)); w++ {
		go func() {
			for job := range work {
				if err := fctx.Err(); err != nil {
					results <- fetchResult{job: job, err: err}
					continue
				}
				if job.rp.down.Load() {
					// The peer went down while this job queued (another of
					// its scans exhausted retries): don't spend ours too.
					results <- fetchResult{job: job,
						err: fmt.Errorf("%w: peer %s marked down", ErrPeerUnreachable, job.rp.name)}
					continue
				}
				if job.ship != nil {
					// Plan shipping first: execute the relation's bound
					// sub-plans at the serving peer and reassemble a partial
					// replica from the answers. A rejection the serving side
					// types as ErrPlanUnsupported — old server, uncompilable
					// plan, row-budget overflow — falls through to the mirror
					// paths below on the same connection; any other failure is
					// the job's failure, like a failed scan.
					dst, r, serr := n.runShip(fctx, pol, budget, job)
					retried.Add(int64(r))
					if serr == nil {
						results <- fetchResult{job: job, rel: dst, got: job.want, overlay: true}
						continue
					}
					if !errors.Is(serr, ErrPlanUnsupported) {
						results <- fetchResult{job: job, err: serr}
						continue
					}
				}
				// Cheap path first: when the replica's last-synced fingerprint
				// is known and the transport can ship change records, catch up
				// from the serving peer's log instead of re-reading the
				// relation. A transport failure here is the job's failure (a
				// scan against the same peer would fare no better); an
				// uncovered or inconsistent delta falls through to the scan.
				dst, viaDelta, r, err := n.tryDelta(fctx, pol, budget, job)
				retried.Add(int64(r))
				if err != nil {
					results <- fetchResult{job: job, err: err}
					continue
				}
				if viaDelta {
					results <- fetchResult{job: job, rel: dst, viaDelta: true,
						got: remoteFP{ver: dst.Version(), rows: dst.Len()}}
					continue
				}
				r, err = retryOp(fctx, pol, budget, func(actx context.Context) error {
					// Fresh destination per attempt: a dropped scan's partial
					// tuples must never leak into the retry.
					dst = relation.New(job.rp.mirror.Schema(job.rel))
					return job.rp.tr.Scan(actx, job.rp.name, job.rel, func(batch []relation.Tuple) error {
						for _, t := range batch {
							if err := dst.Insert(t); err != nil {
								return err
							}
						}
						return nil
					})
				})
				retried.Add(int64(r))
				if err == nil {
					// The replica carries the fingerprint it is recorded at,
					// which is where the next catch-up starts from.
					dst.RestoreVersion(job.want.ver)
				}
				results <- fetchResult{job: job, rel: dst, got: job.want, err: err}
			}
		}()
	}
	// Every queued job yields exactly one result, so draining is
	// deadlock-free even when an error cancels the stragglers.
	var firstErr error
	for pending := len(jobs); pending > 0; pending-- {
		res := <-results
		if res.err != nil {
			if allowStale && degradable(ctx, res.err) {
				name := res.job.rp.name
				if degraded[name] == nil {
					degraded[name] = &DegradedPeer{Peer: name, Err: res.err, LastSync: res.job.rp.lastSync}
					n.markDown(res.job.rp, res.err)
				}
				continue // last-good replica keeps serving; don't cancel the rest
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("pdms: fetch %s.%s: %w", res.job.rp.name, res.job.rel, res.err)
				cancel() // abort the remaining scans, PR 3 style
			}
			continue
		}
		if res.overlay {
			if firstErr == nil {
				if ships == nil {
					ships = make(map[string]*relation.Relation)
				}
				ships[glav.QualifiedName(res.job.rp.name, res.job.rel)] = res.rel
				n.remoteShips.Add(1)
				paths = append(paths, SyncPath{Peer: res.job.rp.name, Rel: res.job.rel, Path: "ship"})
			}
			continue
		}
		// A completed refresh is recorded even when a sibling's failure
		// fails the request: a delta catch-up has already advanced the
		// replica in place, and its recorded fingerprint must move with it.
		res.job.rp.mirror.Store.Put(res.rel)
		res.job.rp.fetched[res.job.rel] = res.got
		if res.viaDelta {
			n.remoteDeltas.Add(1)
			paths = append(paths, SyncPath{Peer: res.job.rp.name, Rel: res.job.rel, Path: "delta"})
		} else {
			n.remoteScans.Add(1)
			paths = append(paths, SyncPath{Peer: res.job.rp.name, Rel: res.job.rel, Path: "scan"})
		}
	}
	sort.Slice(paths, func(i, j int) bool {
		if paths[i].Peer != paths[j].Peer {
			return paths[i].Peer < paths[j].Peer
		}
		return paths[i].Rel < paths[j].Rel
	})
	return int(retried.Load()), ships, paths, firstErr
}

// tryDelta attempts the delta catch-up for one stale replica. used is
// false (with a nil error) when the cheap path does not apply — the
// replica has no recorded fingerprint, the serving node cannot ship
// deltas or its log no longer covers the range (ok=false either way),
// the records stop short of the fingerprint the State probe promised,
// or they fail verification — and the caller falls back to a full scan
// with the
// replica exactly as it was: relation.ApplyChanges checks a run before
// it touches anything. On success dst is the caught-up replica — job.base
// itself, advanced in place, unless the run held a delete. A transport
// error is returned as err: a scan against the same unreachable peer
// would only spend more retries, so the failure flows into the request's
// ordinary degradation handling.
//
// Workers call this while the request holds remoteMu's write side, one
// job per relation, so the in-place advance races with nothing: other
// readers of the mirror wait on the lock, and cursors already running
// read snapshots the appends cannot reach.
func (n *Network) tryDelta(ctx context.Context, pol RetryPolicy, budget *retryBudget,
	job fetchJob) (dst *relation.Relation, used bool, retries int, err error) {
	if job.base == nil {
		return nil, false, 0, nil
	}
	var recs []relation.ChangeRecord
	var covered bool
	retries, err = retryOp(ctx, pol, budget, func(actx context.Context) error {
		var derr error
		recs, covered, derr = job.rp.tr.Delta(actx, job.rp.name, job.rel, job.base.Version())
		return derr
	})
	if err != nil {
		return nil, false, retries, err
	}
	if !covered || len(recs) == 0 || recs[len(recs)-1].Ver < job.want.ver {
		return nil, false, retries, nil
	}
	dst, aerr := job.base.ApplyChanges(recs)
	if aerr != nil {
		return nil, false, retries, nil // inconsistent records: the scan is the truth
	}
	return dst, true, retries, nil
}

// invalidateRemotesLocked drops every replica fingerprint so the next
// query re-fetches whatever it references, InvalidateCaches's
// out-of-band hammer extended to the distributed tier. Caller holds
// n.remoteMu.
func (n *Network) invalidateRemotesLocked() {
	for _, rp := range n.remotes {
		rp.fetched = make(map[string]remoteFP)
	}
}
