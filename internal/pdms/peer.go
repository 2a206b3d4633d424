// Package pdms implements Piazza, REVERE's peer data management system
// (§3): an overlay of peers, each with its own schema and stored
// relations, connected by local GLAV mappings. Queries are posed in any
// peer's schema and answered over the transitive closure of mappings,
// with pruning heuristics over the space of reformulations, plus
// updategram propagation into materialized views placed at peers.
package pdms

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/relation"
	"repro/internal/store"
)

// Peer is one participant: a named schema plus locally stored relations.
// In REVERE a peer "may provide new content and services ... plus it may
// make use of the system by posing queries"; here every peer stores its
// own data in its own schema.
type Peer struct {
	Name   string
	Store  *relation.Database
	schema map[string]relation.Schema
	// nets are the networks this peer has joined; AddSchema notifies
	// them so stale cached reformulations die, and commits maintain their
	// placed views. Mutated only under the single-writer contract
	// (AddPeer/RemovePeer/AddSchema require external synchronization). A
	// network is unlinked by RemovePeer — a peer that outlives its
	// network must be removed from it, or the network (and its caches)
	// stays reachable here.
	nets map[*Network]struct{}
	// schemaVer counts AddSchema calls. Transports serve it in the
	// peer's statistics fingerprint so a coordinator mirroring this peer
	// can tell, in one cheap round trip, that the relation set grew.
	// Atomic because a serving transport reads it concurrently with the
	// single writer.
	schemaVer atomic.Uint64
	// serveMu makes serving this peer over a transport safe against the
	// node's own mutations — exactly the live-freshness scenario the
	// wire protocol's fingerprint probe exists for. Commits (Insert,
	// Delete, Publish) and AddSchema take the write side; the Serving*
	// accessors (what Loopback and the TCP server read) take the read
	// side. In-process readers (queries through a Network) keep the
	// pre-existing contract: they are synchronized by the network's
	// caches and fingerprints, not by this lock.
	serveMu sync.RWMutex
	// persist, when non-nil, is the durable snapshot+WAL store backing
	// Store: commits and AddSchema are logged to it under serveMu, and
	// ServingDelta serves catch-up records from its resident log. Nil
	// for ordinary in-memory peers. See OpenDurablePeer.
	persist *store.Store
	// feeds are the live push subscriptions fanning this peer's change
	// records out (FeedSubscribe registers them). Mutated and iterated
	// only under serveMu's write side, so commit-time fan-out needs no
	// extra lock; feeds found closed are dropped lazily. Nil until the
	// first subscription.
	feeds map[*ChangeFeed]struct{}
	// mirror marks a coordinator's local replica of a remote peer
	// (AddRemotePeer): its data belongs to the origin, so commit refuses
	// it rather than fork the replica from what the origin holds.
	mirror bool
}

// NewPeer creates a peer with the given relation schemas; stored
// relations start empty.
func NewPeer(name string, schemas ...relation.Schema) *Peer {
	p := &Peer{Name: name, Store: relation.NewDatabase(),
		schema: make(map[string]relation.Schema), nets: make(map[*Network]struct{})}
	for _, s := range schemas {
		p.schema[s.Name] = s
		p.Store.Put(relation.New(s))
	}
	return p
}

// OpenDurablePeer creates a peer backed by the snapshot+WAL store rooted
// at dir, recovering whatever state a previous incarnation persisted
// there: relations come back with their exact (version, rows)
// fingerprints, so remote mirrors that synced before the restart see
// nothing to re-fetch. Schemas already recovered from the store are kept
// as-is; schemas in the argument list that the store does not know yet
// are added (and logged) — so the same call serves both a fresh start
// and a restart. Commits (Insert, Delete, Publish) and AddSchema are
// logged to the store; Checkpoint folds the log into a fresh snapshot,
// and ClosePersist releases the store on shutdown.
func OpenDurablePeer(name, dir string, schemas ...relation.Schema) (*Peer, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	p := &Peer{Name: name, Store: st.Database(),
		schema: make(map[string]relation.Schema), nets: make(map[*Network]struct{}),
		persist: st}
	p.schemaVer.Store(st.SchemaVersion())
	for _, r := range p.Store.Relations() {
		p.schema[r.Schema.Name] = r.Schema
	}
	for _, s := range schemas {
		if _, known := p.schema[s.Name]; known {
			continue
		}
		p.schema[s.Name] = s
		p.Store.Put(relation.New(s))
		ver := p.schemaVer.Add(1)
		if err := st.Append(relation.ChangeRecord{Op: relation.ChangeSchema,
			Rel: s.Name, Ver: ver, Schema: s}); err != nil {
			st.Close()
			return nil, err
		}
	}
	return p, nil
}

// Persist returns the durable store backing this peer, or nil for an
// ordinary in-memory peer. Callers use it to inspect recovery counters
// (Recovered), durability health (Err), or to opt into fsync-per-record
// appends (SyncAppend).
func (p *Peer) Persist() *store.Store { return p.persist }

// Checkpoint folds the durable peer's change log into a fresh snapshot,
// under the serving lock so the snapshot captures a consistent database.
// A no-op (nil) on an in-memory peer.
func (p *Peer) Checkpoint() error {
	if p.persist == nil {
		return nil
	}
	p.serveMu.Lock()
	defer p.serveMu.Unlock()
	return p.persist.Checkpoint()
}

// ClosePersist closes the durable store (a no-op on an in-memory peer).
// The snapshot stays as the last Checkpoint wrote it; callers wanting an
// empty log on the next start should Checkpoint first.
func (p *Peer) ClosePersist() error {
	if p.persist == nil {
		return nil
	}
	return p.persist.Close()
}

// ServingDelta returns, under the serving lock, the change records of
// rel with version > since — the Delta response a transport sends to a
// mirror catching up from a known fingerprint. ok is false when the
// catch-up cannot be served: the peer is not durable, or a checkpoint
// already folded the requested range into the snapshot; the caller falls
// back to a full scan.
func (p *Peer) ServingDelta(rel string, since uint64) (recs []relation.ChangeRecord, ok bool) {
	if p.persist == nil {
		return nil, false
	}
	p.serveMu.RLock()
	defer p.serveMu.RUnlock()
	if p.Store.Get(rel) == nil {
		return nil, false // unknown relation: never claim an empty delta covers it
	}
	return p.persist.Since(rel, since)
}

// AddSchema registers one more relation in the peer's schema. Networks
// the peer has joined treat this as a topology change: reformulations
// cached against the old schema are invalidated. On a durable peer the
// addition is logged; a log failure poisons the store (Persist().Err())
// rather than failing this call.
func (p *Peer) AddSchema(s relation.Schema) {
	p.serveMu.Lock()
	p.schema[s.Name] = s
	if p.Store.Get(s.Name) == nil {
		p.Store.Put(relation.New(s))
	}
	ver := p.schemaVer.Add(1)
	rec := relation.ChangeRecord{Op: relation.ChangeSchema, Rel: s.Name, Ver: ver, Schema: s}
	p.fanout(rec)
	if p.persist != nil {
		p.persist.Append(rec)
	}
	p.serveMu.Unlock()
	for n := range p.nets {
		n.bumpTopology()
	}
}

// SchemaVersion returns how many times AddSchema has been called — the
// schema-growth counter a transport publishes so remote mirrors notice
// new relations without diffing schema lists.
func (p *Peer) SchemaVersion() uint64 { return p.schemaVer.Load() }

// HasRelation reports whether the peer's schema includes rel.
func (p *Peer) HasRelation(rel string) bool {
	_, ok := p.schema[rel]
	return ok
}

// Schema returns the schema of rel (zero Schema if absent).
func (p *Peer) Schema(rel string) relation.Schema { return p.schema[rel] }

// RelationNames returns the peer's relation names, sorted.
func (p *Peer) RelationNames() []string {
	out := make([]string, 0, len(p.schema))
	for n := range p.schema {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Insert stores a tuple through the peer's one commit path (see
// commit): safe against concurrent serving of this peer over a
// transport (not against concurrent in-process readers, which keep the
// single-writer contract), pushed to feed subscribers, and folded into
// every placed view over rel on the networks the peer joined. On a
// durable peer a log failure is the call's error (the tuple is in
// memory but not durable).
func (p *Peer) Insert(rel string, t relation.Tuple) error {
	_, err := p.commit(rel, nil, []relation.Tuple{t}, nil)
	return err
}

// Delete removes every stored tuple of rel equal to t through the same
// commit path, reporting how many were removed; a delete that removes
// nothing is neither logged, pushed, nor shown to placed views.
func (p *Peer) Delete(rel string, t relation.Tuple) (int, error) {
	return p.commit(rel, []relation.Tuple{t}, nil, nil)
}

// commit is the one way stored data changes: Insert, Delete and
// Network.Publish all reduce to it. It applies one batch to rel,
// deletes before inserts (a tuple in both ends up present), and checks
// the whole batch first, so a refused batch touches nothing. Under the
// serving write lock each effective change is mutated first, then
// fanned out to the push feeds and logged; the records are
// byte-identical to what the same sequence of single Insert/Delete
// calls writes. After the lock is released the records reach every
// placed view over rel on the networks p joined (maintainViews). Only
// those networks' pre-states are taken, before the commit, so a peer
// with no view over rel builds no record its log and feeds do not
// consume. stats, when non-nil, accumulates the view work. It returns
// the rows deleted and the first log failure. A remote peer's mirror
// refuses every commit: the write belongs at the origin.
func (p *Peer) commit(rel string, dels, ins []relation.Tuple, stats *PublishStats) (removed int, err error) {
	if p.mirror {
		return 0, fmt.Errorf("pdms: peer %s is a mirror of a remote peer; commit to %s.%s at its origin", p.Name, p.Name, rel)
	}
	r := p.Store.Get(rel)
	if r == nil {
		return 0, fmt.Errorf("pdms: peer %s has no relation %q", p.Name, rel)
	}
	for _, t := range ins {
		if err := r.Schema.Compatible(t); err != nil {
			return 0, err
		}
	}
	var nets []*Network           // joined networks with a placed view over rel
	var pres []*relation.Database // and their pre-states
	for n := range p.nets {
		if n.viewsOver(p.Name, rel) {
			nets, pres = append(nets, n), append(pres, n.GlobalDB())
		}
	}
	var recs []relation.ChangeRecord
	p.serveMu.Lock()
	for i := range len(dels) + len(ins) {
		rec := relation.ChangeRecord{Op: relation.ChangeDelete, Rel: rel}
		if i < len(dels) {
			rec.Tuple = dels[i]
			k := r.Delete(rec.Tuple)
			if k == 0 {
				continue // nothing removed: no record, no view tuple
			}
			removed += k
		} else {
			rec.Op, rec.Tuple = relation.ChangeInsert, ins[i-len(dels)]
			_ = r.Insert(rec.Tuple) // cannot fail: the batch was checked above
		}
		if p.persist == nil && len(p.feeds) == 0 && nets == nil {
			continue
		}
		rec.Ver, rec.Rows = r.Version(), r.Len()
		p.fanout(rec)
		if p.persist != nil {
			if lerr := p.persist.Append(rec); err == nil {
				err = lerr
			}
		}
		if nets != nil {
			recs = append(recs, rec)
		}
	}
	p.serveMu.Unlock()
	if len(recs) > 0 {
		qualified := glav.QualifiedName(p.Name, rel)
		for i, n := range nets {
			n.maintainViews(pres[i], n.GlobalDB(), qualified, recs, stats)
		}
	}
	return removed, err
}

// ServingState returns, under the serving lock, the peer's schema
// version and every stored relation's statistics fingerprint — the
// State response transports send.
func (p *Peer) ServingState() (uint64, []relation.NamedStats) {
	p.serveMu.RLock()
	defer p.serveMu.RUnlock()
	rels := p.Store.Relations()
	stats := make([]relation.NamedStats, 0, len(rels))
	for _, r := range rels {
		stats = append(stats, relation.NamedStats{Name: r.Schema.Name, Stats: r.Stats()})
	}
	return p.SchemaVersion(), stats
}

// ServingSchemas returns, under the serving lock, the peer's relation
// schemas in name order — the Schemas response transports send.
func (p *Peer) ServingSchemas() []relation.Schema {
	p.serveMu.RLock()
	defer p.serveMu.RUnlock()
	out := make([]relation.Schema, 0, len(p.schema))
	for _, name := range p.RelationNames() {
		out = append(out, p.schema[name])
	}
	return out
}

// ServingScan returns, under the serving lock, a snapshot of the named
// relation for a transport to stream (nil when the peer lacks it).
// Streaming from the snapshot needs no lock: later inserts never touch
// a snapshot already taken.
func (p *Peer) ServingScan(rel string) *relation.Relation {
	p.serveMu.RLock()
	defer p.serveMu.RUnlock()
	r := p.Store.Get(rel)
	if r == nil {
		return nil
	}
	return r.SnapshotAs(r.Schema.Name)
}

// Network is the PDMS overlay: peers plus the mapping graph. The arrows
// of the paper's Figure 2 are Mapping values here.
//
// Concurrency: read-side operations (Answer, LocalAnswer, GlobalDB,
// EstimateCost) may run concurrently with each other — the caches and
// shared snapshots they touch are synchronized. Mutations (AddPeer,
// AddMapping, RemovePeer, Subscribe, and every commit — Peer.Insert,
// Peer.Delete, Publish — which also maintains the placed views over the
// committed relation) require external synchronization with respect to
// readers and each other, the same single-writer contract the
// underlying relations have.
type Network struct {
	peers    map[string]*Peer
	order    []string
	mappings []*glav.Mapping
	// byTargetRel indexes GAV-usable mappings by qualified target atom.
	byTargetRel map[string][]*glav.Mapping
	// gavDefs holds, aligned with byTargetRel, each mapping's unfolding
	// definition (qualified source body), precomputed once at
	// registration so reformulation doesn't re-qualify per expansion.
	gavDefs map[string][]cq.Query
	// byTargetPeer indexes all mappings by target peer (for LAV rewriting).
	byTargetPeer map[string][]*glav.Mapping
	subs         []*Subscription
	// subMu guards the placed materialized views' extents (and the subs
	// slice) against the push applier goroutine, which propagates pushed
	// deltas into them concurrently with the single-writer Publish path.
	// Lock order: remoteMu before subMu, never the reverse.
	subMu sync.Mutex

	// topoVersion counts topology changes (peers/mappings/schema
	// additions); the answer cache keys on it so rewritings never
	// outlive the mapping graph and schemas they were derived from.
	// Atomic so reformCacheKey reads it without taking mu.
	topoVersion atomic.Uint64

	mu sync.Mutex
	// globalDB caches the qualified snapshot built by GlobalDB, valid
	// while globalFP (per-relation identity+version+length) matches;
	// globalSnaps holds, aligned with globalFP, the snapshot relation of
	// each entry, so a rebuild re-snapshots only the entries that moved.
	globalDB    *relation.Database
	globalFP    []relFingerprint
	globalSnaps []*relation.Relation
	// reformCache memoizes Answer's reformulations (and their compiled
	// plans) per query; see Answer.
	reformCache map[reformKey]*reformEntry
	// reformInflight coalesces concurrent cold misses per cache key
	// (singleflight); entries remove themselves when the leader
	// finishes. See reformulateOnce.
	reformInflight map[reformKey]*reformCall
	// reformCalls counts reformulation searches actually run — cache
	// hits and coalesced waiters don't increment it (observability for
	// the singleflight path).
	reformCalls atomic.Uint64

	// remotes indexes the remote participants by name (a subset of
	// peers: each remote peer's local mirror is registered there too).
	// Like peers it is mutated only under the single-writer contract.
	// remoteMu makes the hidden mirror mutation inside the remote
	// query-prepare path — fingerprint sync, mirror AddSchema, replica
	// Put — safe against the documented read-side concurrency: Query
	// prepare takes the write side, and the other read-side entry
	// points that walk peer stores (GlobalDB, LocalQuery, EstimateCost)
	// take the read side, so concurrent readers stay safe exactly as
	// they are on an all-local network. Execution never holds it:
	// cursors run over immutable snapshots. All-local networks skip it
	// entirely.
	remotes  map[string]*RemotePeer
	remoteMu sync.RWMutex

	// syncCounts counts replica refreshes per sync-ladder rung (ship,
	// delta, scan) — the counters RemoteSyncCounts exposes so harnesses
	// can prove a rejoin moved records, not relations, and that plan
	// shipping actually ran.
	syncCounts [len(ladder)]atomic.Uint64

	// pushBatches, pushRecords, and pushGaps count the push-replication
	// traffic the subscription managers applied — delivered change
	// batches, records in them, and feed-overflow gaps (PushCounts).
	pushBatches atomic.Uint64
	pushRecords atomic.Uint64
	pushGaps    atomic.Uint64

	// waitCh is the generation channel WaitPushLive/WaitPushApplied sleep
	// on, closed (under remoteMu's write side) whenever the state they
	// watch may have moved; nil while nobody waits. See pushWaitChan.
	waitMu sync.Mutex
	waitCh chan struct{}

	// DownProbeInterval is how often the background prober re-checks a
	// remote peer that graceful degradation marked down
	// (DefaultDownProbeInterval when zero). Set it before the first
	// query; it is read when a peer goes down.
	DownProbeInterval time.Duration
}

// relFingerprint identifies one stored relation's state at snapshot time.
type relFingerprint struct {
	rel *relation.Relation
	ver uint64
	n   int
}

// NewNetwork returns an empty overlay.
func NewNetwork() *Network {
	return &Network{
		peers:          make(map[string]*Peer),
		byTargetRel:    make(map[string][]*glav.Mapping),
		gavDefs:        make(map[string][]cq.Query),
		byTargetPeer:   make(map[string][]*glav.Mapping),
		reformCache:    make(map[reformKey]*reformEntry),
		reformInflight: make(map[reformKey]*reformCall),
	}
}

// AddPeer registers a peer; the name must be unused.
func (n *Network) AddPeer(p *Peer) error {
	if _, dup := n.peers[p.Name]; dup {
		return fmt.Errorf("pdms: duplicate peer %q", p.Name)
	}
	n.peers[p.Name] = p
	n.order = append(n.order, p.Name)
	p.nets[n] = struct{}{}
	n.bumpTopology()
	return nil
}

// bumpTopology records a peer/mapping/schema change, invalidating
// cached reformulations.
func (n *Network) bumpTopology() {
	n.topoVersion.Add(1)
	n.mu.Lock()
	if len(n.reformCache) > 0 {
		n.reformCache = make(map[reformKey]*reformEntry)
	}
	n.mu.Unlock()
}

// InvalidateCaches drops every cached reformulation, compiled plan,
// global snapshot, memoized containment verdict, and every remote
// replica's synced mark (so the next query re-fetches, by full scan,
// the remote relations it references). Topology and data changes —
// local or observed remotely through the fingerprint sync — invalidate
// automatically; this exists for out-of-band situations (and for
// benchmarking the cold path).
func (n *Network) InvalidateCaches() {
	n.topoVersion.Add(1)
	n.mu.Lock()
	n.reformCache = make(map[reformKey]*reformEntry)
	n.globalDB, n.globalFP, n.globalSnaps = nil, nil, nil
	n.mu.Unlock()
	n.remoteMu.Lock()
	for _, rp := range n.remotes {
		for _, rec := range rp.rels {
			rec.synced = false
		}
	}
	n.remoteMu.Unlock()
	resetContainCache()
}

// gavDef builds the unfolding definition for a GAV mapping: the target
// atom's predicate defined by the mapping's qualified source body.
func gavDef(key string, m *glav.Mapping) cq.Query {
	return cq.Query{
		HeadPred: key,
		HeadVars: m.SrcQ.HeadVars,
		Body:     glav.Qualify(m.SrcQ, m.SrcPeer).Body,
	}
}

// Peer returns the named peer, or nil.
func (n *Network) Peer(name string) *Peer { return n.peers[name] }

// PeerNames returns all peer names in registration order.
func (n *Network) PeerNames() []string {
	out := make([]string, len(n.order))
	copy(out, n.order)
	return out
}

// NumPeers returns the number of peers.
func (n *Network) NumPeers() int { return len(n.peers) }

// NumMappings returns the number of mappings.
func (n *Network) NumMappings() int { return len(n.mappings) }

// AddMapping registers a mapping; both endpoints must exist and every
// predicate must belong to the respective peer's schema.
func (n *Network) AddMapping(m *glav.Mapping) error {
	src, tgt := n.peers[m.SrcPeer], n.peers[m.TgtPeer]
	if src == nil || tgt == nil {
		return fmt.Errorf("pdms: mapping %s references unknown peer", m.ID)
	}
	if err := checkMappingSide(m.ID, src, m.SrcQ); err != nil {
		return err
	}
	if err := checkMappingSide(m.ID, tgt, m.TgtQ); err != nil {
		return err
	}
	n.mappings = append(n.mappings, m)
	if m.IsGAV() {
		key := glav.QualifiedName(m.TgtPeer, m.TargetAtomPred())
		n.byTargetRel[key] = append(n.byTargetRel[key], m)
		n.gavDefs[key] = append(n.gavDefs[key], gavDef(key, m))
	}
	n.byTargetPeer[m.TgtPeer] = append(n.byTargetPeer[m.TgtPeer], m)
	n.bumpTopology()
	return nil
}

// checkMappingSide validates that every atom of one mapping side names a
// relation the peer has, with matching arity — catching authoring
// mistakes at registration rather than mid-reformulation.
func checkMappingSide(id string, p *Peer, q cq.Query) error {
	for _, a := range q.Body {
		if !p.HasRelation(a.Pred) {
			return fmt.Errorf("pdms: mapping %s: peer %s lacks relation %q", id, p.Name, a.Pred)
		}
		if want := p.Schema(a.Pred).Arity(); want != len(a.Args) {
			return fmt.Errorf("pdms: mapping %s: atom %s has %d args, %s.%s has arity %d",
				id, a, len(a.Args), p.Name, a.Pred, want)
		}
	}
	return nil
}

// Mappings returns all mappings.
func (n *Network) Mappings() []*glav.Mapping { return n.mappings }

// RemovePeer disconnects a peer: its storage, every mapping touching it,
// and every subscription it hosts disappear. Peer-to-peer systems let
// "every member ... join or leave at will" (§3); queries elsewhere keep
// working over whatever remains reachable.
func (n *Network) RemovePeer(name string) error {
	p, ok := n.peers[name]
	if !ok {
		return fmt.Errorf("pdms: unknown peer %q", name)
	}
	delete(p.nets, n)
	delete(n.peers, name)
	if rp := n.remotes[name]; rp != nil {
		rp.stopProber() // a down leaver must not keep a prober goroutine alive
		rp.stopPush()   // nor a push subscription manager
	}
	delete(n.remotes, name) // a remote leaver takes its mirror along; the transport stays caller-owned
	n.wakePushWaiters()     // whoever waits on the leaver learns it is gone
	for i, pn := range n.order {
		if pn == name {
			n.order = append(n.order[:i], n.order[i+1:]...)
			break
		}
	}
	kept := n.mappings[:0]
	for _, m := range n.mappings {
		if m.SrcPeer == name || m.TgtPeer == name {
			continue
		}
		kept = append(kept, m)
	}
	n.mappings = kept
	// Rebuild mapping indexes.
	n.byTargetRel = make(map[string][]*glav.Mapping)
	n.gavDefs = make(map[string][]cq.Query)
	n.byTargetPeer = make(map[string][]*glav.Mapping)
	for _, m := range n.mappings {
		if m.IsGAV() {
			key := glav.QualifiedName(m.TgtPeer, m.TargetAtomPred())
			n.byTargetRel[key] = append(n.byTargetRel[key], m)
			n.gavDefs[key] = append(n.gavDefs[key], gavDef(key, m))
		}
		n.byTargetPeer[m.TgtPeer] = append(n.byTargetPeer[m.TgtPeer], m)
	}
	n.bumpTopology()
	// Drop hosted subscriptions and subscriptions over its relations
	// (under subMu: a push applier may be fanning into them).
	n.subMu.Lock()
	defer n.subMu.Unlock()
	keptSubs := n.subs[:0]
	prefix := name + "."
	for _, sub := range n.subs {
		if sub.AtPeer == name {
			continue
		}
		if slices.ContainsFunc(sub.MV.View.Def.Predicates(), func(pred string) bool { return strings.HasPrefix(pred, prefix) }) {
			continue
		}
		keptSubs = append(keptSubs, sub)
	}
	n.subs = keptSubs
	return nil
}

// GlobalDB builds the qualified database: every peer's stored relation
// appears under "peer.rel". Reformulated queries are evaluated here,
// simulating the distributed execution of §3.1.2 in-process (remote
// peers appear through their locally mirrored replicas).
//
// The snapshot is cached: while no stored relation has been mutated
// (tracked by relation version counters), repeated calls return the
// same database, so indexes built by the query engine stay warm across
// queries. A mutation yields a new database on the next call in which
// only the mutated relations are re-snapshotted (O(arity) each — see
// Relation.SnapshotAs); every other snapshot relation is carried over
// by pointer, warm indexes and translation memos included. Snapshots
// already handed out are never touched.
func (n *Network) GlobalDB() *relation.Database {
	if len(n.remotes) > 0 {
		n.remoteMu.RLock()
		defer n.remoteMu.RUnlock()
	}
	return n.globalSnapshot()
}

// globalSnapshot is GlobalDB without the remote read lock; callers on
// the remote query-prepare path already hold remoteMu.
func (n *Network) globalSnapshot() *relation.Database {
	n.mu.Lock()
	db, oldFP, oldSnaps := n.globalDB, n.globalFP, n.globalSnaps
	n.mu.Unlock()
	if db != nil && n.fingerprintIs(oldFP) {
		return db
	}
	db = relation.NewDatabase()
	fp := make([]relFingerprint, 0, len(oldFP))
	snaps := make([]*relation.Relation, 0, len(oldFP))
	for _, name := range n.order {
		for _, r := range n.peers[name].Store.Relations() {
			i := len(fp)
			cur := relFingerprint{rel: r, ver: r.Version(), n: r.Len()}
			var snap *relation.Relation
			if i < len(oldFP) && oldFP[i] == cur &&
				qualifiedAs(oldSnaps[i].Schema.Name, name, r.Schema.Name) {
				snap = oldSnaps[i]
			} else {
				snap = r.SnapshotAs(glav.QualifiedName(name, r.Schema.Name))
			}
			fp, snaps = append(fp, cur), append(snaps, snap)
			db.Put(snap)
		}
	}
	n.mu.Lock()
	n.globalDB, n.globalFP, n.globalSnaps = db, fp, snaps
	n.mu.Unlock()
	return db
}

// qualifiedAs reports whether qualified is peer's rel's qualified name,
// without building the string.
func qualifiedAs(qualified, peer, rel string) bool {
	return len(qualified) == len(peer)+1+len(rel) &&
		qualified[:len(peer)] == peer && qualified[len(peer)] == '.' &&
		qualified[len(peer)+1:] == rel
}

// fingerprintIs reports whether fp still describes every stored
// relation — identity, version and length, in deterministic
// peer/relation order. It runs on every query and allocates nothing.
func (n *Network) fingerprintIs(fp []relFingerprint) bool {
	i := 0
	for _, name := range n.order {
		for _, r := range n.peers[name].Store.Relations() {
			if i == len(fp) || fp[i] != (relFingerprint{rel: r, ver: r.Version(), n: r.Len()}) {
				return false
			}
			i++
		}
	}
	return i == len(fp)
}

// MappingDegree returns, per peer, how many mappings touch it — used by
// the E3 mapping-effort experiment.
func (n *Network) MappingDegree() map[string]int {
	deg := make(map[string]int, len(n.peers))
	for _, m := range n.mappings {
		deg[m.SrcPeer]++
		deg[m.TgtPeer]++
	}
	return deg
}
