package pdms

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/relation"
)

// This file defines the transport seam of the distributed PDMS: the
// Transport interface a coordinator uses to reach a peer that lives
// elsewhere, and Loopback, the in-process reference implementation.
// Loopback deliberately round-trips every schema, statistics
// fingerprint, and tuple batch through the wire codecs of
// internal/relation, so the differential test axis is exactly one
// variable long: in-process vs loopback isolates the encoding, and
// loopback vs TCP isolates the sockets.

// Transport is how a Network reaches a peer hosted on another node: the
// six request kinds of the wire protocol (PROTOCOL.md). State, Schemas
// and Scan are the mirror path — a cheap statistics fingerprint used to
// decide whether anything must move, the peer's relation schemas, and a
// streaming scan of one relation's tuples. Delta, ExecPlan and Subscribe
// are the cheaper refresh paths, and whether the remote node offers them
// is a fact about that node, learned from its answer and never from the
// Go type: a node that cannot serve one refuses typed (ok=false,
// ErrPlanUnsupported, ErrPushUnsupported) and the coordinator falls
// back down the ladder, exactly as a new client meets an old server on
// the wire. A decorator therefore forwards every method. Implementations
// must be safe for concurrent use — the fetch path scans several
// relations at once.
type Transport interface {
	// State returns the peer's current statistics fingerprint: its
	// schema version plus, per relation, row count, mutation version,
	// and distinct-value estimates. It is the per-query freshness probe,
	// so it should be cheap.
	State(ctx context.Context, peer string) (PeerState, error)
	// Schemas returns the peer's relation schemas.
	Schemas(ctx context.Context, peer string) ([]relation.Schema, error)
	// Scan streams the named relation's tuples in batches, calling
	// deliver for each batch in order. A deliver error or ctx
	// cancellation aborts the scan with that error.
	Scan(ctx context.Context, peer, rel string, deliver func([]relation.Tuple) error) error
	// Delta returns rel's change records with version > since, in log
	// order, so a mirror holding a replica at that version applies a
	// handful of records instead of re-scanning the relation. ok=false
	// (with a nil error) means the serving side cannot cover the range —
	// the peer is not durable, a checkpoint discarded the records, or
	// the node predates the Delta request — and the caller falls back to
	// a full scan. The final record's fingerprint may be newer than the
	// State probe that motivated the call — the mirror lands on the
	// fresher state, which is fine.
	Delta(ctx context.Context, peer, rel string, since uint64) (recs []relation.ChangeRecord, ok bool, err error)
	// ExecPlan executes the conjunctive sub-plan sp at the serving peer,
	// calling deliver for each batch of distinct result tuples in order.
	// Failures the caller should absorb by mirroring instead — an old
	// server, a plan the peer cannot compile, a row-budget overflow —
	// match ErrPlanUnsupported via errors.Is; everything else is a real
	// transport failure.
	ExecPlan(ctx context.Context, peer string, sp relation.SubPlan, deliver func([]relation.Tuple) error) error
	// Subscribe registers a push subscription for every relation the
	// named peer serves and blocks for its life: it calls ack exactly
	// once with the peer's statistics fingerprint at subscribe time (so
	// the subscriber knows which of its replicas are already stale and
	// must heal through the poll path), then deliver for each pushed
	// change batch in order, and returns when the subscription ends —
	// ctx cancellation, a typed ErrSubscriptionGap eviction, an
	// ErrPushUnsupported refusal, a callback error, or a transport
	// failure. since lists, per relation, the mutation version the
	// subscriber last applied; the serving side preloads catch-up
	// records for every listed relation its durable log still covers,
	// and simply starts from now for the rest.
	Subscribe(ctx context.Context, peer string, since map[string]uint64,
		ack func(PeerState) error, deliver func([]relation.ChangeRecord) error) error
	// Close releases the transport's resources (connections, pools).
	Close() error
}

// DeltaTransport, PlanTransport and PushTransport were optional
// extensions of Transport discovered by type assertion; their methods
// are part of Transport now. The names remain only because the frozen
// bench/trace.go spells them; the next benchmark PR retires them.
type (
	DeltaTransport = Transport
	PlanTransport  = Transport
	PushTransport  = Transport
)

// PeerState is a remote peer's statistics fingerprint: everything a
// coordinator needs to decide whether its cached replicas and plans are
// still current, in one round trip.
type PeerState struct {
	// SchemaVersion counts the peer's schema additions; a change means
	// the relation set grew and cached reformulations may be stale.
	SchemaVersion uint64
	// Relations carries per-relation row counts, mutation versions, and
	// per-column distinct estimates, in name order.
	Relations []relation.NamedStats
}

// DefaultScanBatch is how many tuples a transport packs per tuple-batch
// frame when streaming a scan. Large enough to amortize framing, small
// enough that cancellation mid-scan is prompt.
const DefaultScanBatch = 256

// Loopback serves a set of local peers through the Transport interface
// without sockets. Every payload still round-trips through the wire
// codecs, so a loopback network exercises the full encoding path — it
// is the differential reference between in-process execution and the
// TCP transport. The zero value is unusable; use NewLoopback.
type Loopback struct {
	// FeedQueue bounds each push subscription's change feed
	// (DefaultFeedQueue when zero). Tests shrink it to force slow-
	// subscriber gaps without thousands of mutations.
	FeedQueue int

	peers     map[string]*Peer
	scans     atomic.Uint64
	plans     atomic.Uint64
	states    atomic.Uint64
	wireBytes atomic.Uint64
}

// NewLoopback returns a loopback transport serving the given peers.
func NewLoopback(peers ...*Peer) *Loopback {
	l := &Loopback{peers: make(map[string]*Peer, len(peers))}
	for _, p := range peers {
		l.peers[p.Name] = p
	}
	return l
}

// Scans returns how many relation scans the transport has served —
// observability for the fetch path's laziness (tests assert that warm
// queries move no tuples).
func (l *Loopback) Scans() uint64 { return l.scans.Load() }

// Plans returns how many shipped sub-plans the transport has executed —
// the counter differential tests use to assert the ship path actually
// ran (not silently fell back to mirroring).
func (l *Loopback) Plans() uint64 { return l.plans.Load() }

// States returns how many statistics-fingerprint probes the transport
// has served — the counter tests use to prove a live subscription
// answers watch iterations with zero State probes.
func (l *Loopback) States() uint64 { return l.states.Load() }

// WireBytes returns the total payload bytes the transport has moved
// across every operation — the loopback analogue of the TCP client's
// framed-byte counter, and what the ship-vs-mirror ≥10× byte assertion
// measures.
func (l *Loopback) WireBytes() uint64 { return l.wireBytes.Load() }

func (l *Loopback) peer(name string) (*Peer, error) {
	p := l.peers[name]
	if p == nil {
		return nil, &relation.WireError{Code: relation.ErrCodeUnknownPeer,
			Message: "loopback serves no peer " + name}
	}
	return p, nil
}

// State implements Transport, round-tripping the fingerprint through
// the stats frame codec.
func (l *Loopback) State(ctx context.Context, peer string) (PeerState, error) {
	if err := ctx.Err(); err != nil {
		return PeerState{}, err
	}
	p, err := l.peer(peer)
	if err != nil {
		return PeerState{}, err
	}
	l.states.Add(1)
	sv, stats := p.ServingState()
	enc := relation.EncodePeerStats(sv, stats)
	l.wireBytes.Add(uint64(len(enc)))
	sv, decoded, err := relation.DecodePeerStats(enc)
	if err != nil {
		return PeerState{}, fmt.Errorf("pdms: loopback stats round trip: %w", err)
	}
	return PeerState{SchemaVersion: sv, Relations: decoded}, nil
}

// Schemas implements Transport, round-tripping each schema through the
// schema frame codec.
func (l *Loopback) Schemas(ctx context.Context, peer string) ([]relation.Schema, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := l.peer(peer)
	if err != nil {
		return nil, err
	}
	var out []relation.Schema
	for _, schema := range p.ServingSchemas() {
		enc := relation.EncodeSchema(schema)
		l.wireBytes.Add(uint64(len(enc)))
		s, err := relation.DecodeSchema(enc)
		if err != nil {
			return nil, fmt.Errorf("pdms: loopback schema round trip: %w", err)
		}
		out = append(out, s)
	}
	return out, nil
}

// Scan implements Transport: a snapshot of the relation's rows is cut
// into DefaultScanBatch-sized batches, each round-tripped through the
// tuple-batch frame codec, with cancellation checked between batches.
func (l *Loopback) Scan(ctx context.Context, peer, rel string, deliver func([]relation.Tuple) error) error {
	p, err := l.peer(peer)
	if err != nil {
		return err
	}
	r := p.ServingScan(rel)
	if r == nil {
		return &relation.WireError{Code: relation.ErrCodeUnknownRelation,
			Message: "peer " + peer + " has no relation " + rel}
	}
	l.scans.Add(1)
	rows := r.Rows()
	var enc []byte
	for len(rows) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := DefaultScanBatch
		if n > len(rows) {
			n = len(rows)
		}
		enc = relation.AppendTupleBatch(enc[:0], rows[:n])
		l.wireBytes.Add(uint64(len(enc)))
		batch, err := relation.DecodeTupleBatch(enc)
		if err != nil {
			return fmt.Errorf("pdms: loopback batch round trip: %w", err)
		}
		if err := deliver(batch); err != nil {
			return err
		}
		rows = rows[n:]
	}
	return nil
}

// Delta implements Transport, round-tripping the records through
// the change-batch frame codec. ok is false when the served peer cannot
// cover the range from its resident log (not durable, or checkpointed
// past since).
func (l *Loopback) Delta(ctx context.Context, peer, rel string, since uint64) ([]relation.ChangeRecord, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	p, err := l.peer(peer)
	if err != nil {
		return nil, false, err
	}
	recs, ok := p.ServingDelta(rel, since)
	if !ok {
		return nil, false, nil
	}
	enc := relation.EncodeChangeBatch(recs)
	l.wireBytes.Add(uint64(len(enc)))
	decoded, err := relation.DecodeChangeBatch(enc)
	if err != nil {
		return nil, false, fmt.Errorf("pdms: loopback delta round trip: %w", err)
	}
	return decoded, true, nil
}

// ExecPlan implements Transport: the sub-plan round-trips through
// its wire codec, executes at the served peer under its serving lock,
// and each answer batch round-trips through the tuple-batch codec on
// the way back — so loopback plan shipping exercises exactly the bytes
// TCP would move, keeping the differential axis one variable long.
func (l *Loopback) ExecPlan(ctx context.Context, peer string, sp relation.SubPlan,
	deliver func([]relation.Tuple) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p, err := l.peer(peer)
	if err != nil {
		return err
	}
	enc := relation.EncodeSubPlan(sp)
	l.wireBytes.Add(uint64(len(enc)))
	decoded, err := relation.DecodeSubPlan(enc)
	if err != nil {
		return fmt.Errorf("pdms: loopback subplan round trip: %w", err)
	}
	l.plans.Add(1)
	var b []byte
	return p.ServingExecPlan(ctx, decoded, DefaultScanBatch,
		func(s relation.Schema) error {
			b := relation.EncodeSchema(s)
			l.wireBytes.Add(uint64(len(b)))
			_, derr := relation.DecodeSchema(b)
			return derr
		},
		func(batch []relation.Tuple) error {
			b = relation.AppendTupleBatch(b[:0], batch)
			l.wireBytes.Add(uint64(len(b)))
			rt, derr := relation.DecodeTupleBatch(b)
			if derr != nil {
				return fmt.Errorf("pdms: loopback batch round trip: %w", derr)
			}
			return deliver(rt)
		})
}

// Subscribe implements Transport: the since-list round-trips
// through its wire codec, the served peer registers a bounded change
// feed, the ack fingerprint round-trips through the stats codec, and
// every pushed batch round-trips through the change-batch codec — the
// same bytes the TCP push path moves. The call blocks draining the
// feed until ctx is cancelled, the feed gaps (ErrSubscriptionGap), or
// the served peer closes the feed.
func (l *Loopback) Subscribe(ctx context.Context, peer string, since map[string]uint64,
	ack func(PeerState) error, deliver func([]relation.ChangeRecord) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p, err := l.peer(peer)
	if err != nil {
		return err
	}
	encSince := relation.EncodeSubscribeSince(sinceList(since))
	l.wireBytes.Add(uint64(len(encSince)))
	decSince, err := relation.DecodeSubscribeSince(encSince)
	if err != nil {
		return fmt.Errorf("pdms: loopback since round trip: %w", err)
	}
	sinceMap := make(map[string]uint64, len(decSince))
	for _, rv := range decSince {
		sinceMap[rv.Rel] = rv.Ver
	}
	max := l.FeedQueue
	if max <= 0 {
		max = DefaultFeedQueue
	}
	feed, sv, stats := p.FeedSubscribe(sinceMap, max)
	defer feed.Close()
	stop := context.AfterFunc(ctx, feed.Close)
	defer stop()
	encAck := relation.EncodePeerStats(sv, stats)
	l.wireBytes.Add(uint64(len(encAck)))
	sv, decStats, err := relation.DecodePeerStats(encAck)
	if err != nil {
		return fmt.Errorf("pdms: loopback stats round trip: %w", err)
	}
	if err := ack(PeerState{SchemaVersion: sv, Relations: decStats}); err != nil {
		return err
	}
	for {
		recs, err := feed.Next()
		if err != nil {
			if err == ErrFeedClosed {
				if cerr := ctx.Err(); cerr != nil {
					return cerr
				}
			}
			return err
		}
		enc := relation.EncodeChangeBatch(recs)
		l.wireBytes.Add(uint64(len(enc)))
		decoded, err := relation.DecodeChangeBatch(enc)
		if err != nil {
			return fmt.Errorf("pdms: loopback change batch round trip: %w", err)
		}
		if err := deliver(decoded); err != nil {
			return err
		}
	}
}

// sinceList renders a since map as the sorted slice the wire codec
// carries.
func sinceList(since map[string]uint64) []relation.RelVersion {
	out := make([]relation.RelVersion, 0, len(since))
	for rel, ver := range since {
		out = append(out, relation.RelVersion{Rel: rel, Ver: ver})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rel < out[j].Rel })
	return out
}

var _ Transport = (*Loopback)(nil)

// Close implements Transport; a loopback holds no resources.
func (l *Loopback) Close() error { return nil }
