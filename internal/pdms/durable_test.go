package pdms

import (
	"context"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/relation"
	"repro/internal/store"
)

// swapTransport delegates every op to an inner Transport the test replaces,
// simulating a served node that restarts behind one long-lived
// coordinator: the Network keeps its transport handle while the peer
// (and the Loopback serving it) is torn down and rebuilt from disk.
type swapTransport struct {
	mu    sync.Mutex
	inner Transport
}

func (s *swapTransport) get() Transport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner
}

func (s *swapTransport) swap(t Transport) {
	s.mu.Lock()
	s.inner = t
	s.mu.Unlock()
}

func (s *swapTransport) State(ctx context.Context, peer string) (PeerState, error) {
	return s.get().State(ctx, peer)
}

func (s *swapTransport) Schemas(ctx context.Context, peer string) ([]relation.Schema, error) {
	return s.get().Schemas(ctx, peer)
}

func (s *swapTransport) Scan(ctx context.Context, peer, rel string, deliver func([]relation.Tuple) error) error {
	return s.get().Scan(ctx, peer, rel, deliver)
}

func (s *swapTransport) Delta(ctx context.Context, peer, rel string, since uint64) ([]relation.ChangeRecord, bool, error) {
	return s.get().Delta(ctx, peer, rel, since)
}

func (s *swapTransport) ExecPlan(ctx context.Context, peer string, sp relation.SubPlan,
	deliver func([]relation.Tuple) error) error {
	return s.get().ExecPlan(ctx, peer, sp, deliver)
}

func (s *swapTransport) Subscribe(ctx context.Context, peer string, since map[string]uint64,
	ack func(PeerState) error, deliver func([]relation.ChangeRecord) error) error {
	return s.get().Subscribe(ctx, peer, since, ack, deliver)
}

func (s *swapTransport) Close() error { return s.get().Close() }

// subjectRow builds a (name, enrollment) tuple for the durable peer.
func subjectRow(name string, enrollment int64) relation.Tuple {
	return relation.Tuple{relation.SV(name), relation.IV(enrollment)}
}

// TestDurablePeerRestartInvisibleThenDeltaSync is the loopback half of
// the ISSUE 7 acceptance scenario: a coordinator mirrors a durable
// remote peer, the peer restarts from its snapshot+log, and because
// recovery re-establishes the exact (version, rows) fingerprints, the
// restart is invisible — the next warm query moves nothing — and later
// changes flow to the mirror as Delta records, never full re-scans,
// until a checkpoint retires the needed range and the fetch path falls
// back to exactly one scan.
func TestDurablePeerRestartInvisibleThenDeltaSync(t *testing.T) {
	dir := t.TempDir()
	subjectSchema := relation.NewSchema("subject",
		relation.Attr("name"), relation.IntAttr("enrollment"))
	m1, err := OpenDurablePeer("mit", dir, subjectSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []relation.Tuple{
		subjectRow("AI", 80), subjectRow("Robotics", 25), subjectRow("Logic", 10)} {
		if err := m1.Insert("subject", row); err != nil {
			t.Fatal(err)
		}
	}

	n := NewNetwork()
	b := NewPeer("berkeley", relation.NewSchema("course",
		relation.Attr("title"), relation.IntAttr("size")))
	if err := b.Insert("course", relation.Tuple{relation.SV("Ancient History"), relation.IV(40)}); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert("course", relation.Tuple{relation.SV("Compilers"), relation.IV(60)}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddPeer(b); err != nil {
		t.Fatal(err)
	}
	st := &swapTransport{inner: NewLoopback(m1)}
	if _, err := n.AddRemotePeer(context.Background(), "mit", st); err != nil {
		t.Fatal(err)
	}
	for _, mp := range []struct{ id, sp, sq, tp, tq string }{
		{"b2m", "berkeley", "m(T, S) :- course(T, S)", "mit", "m(T, S) :- subject(T, S)"},
		{"m2b", "mit", "m(T, S) :- subject(T, S)", "berkeley", "m(T, S) :- course(T, S)"},
	} {
		if err := n.AddMapping(glav.MustNew(mp.id, mp.sp, cq.MustParse(mp.sq), mp.tp, cq.MustParse(mp.tq))); err != nil {
			t.Fatal(err)
		}
	}

	q := cq.MustParse("q(T) :- course(T, S)")
	ask := func(wantAnswers int, wantScans, wantDeltas uint64, when string) {
		t.Helper()
		res, err := n.Answer("berkeley", q, ReformOptions{})
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if res.Answers.Len() != wantAnswers {
			t.Errorf("%s: %d answers, want %d", when, res.Answers.Len(), wantAnswers)
		}
		scans, deltas, _ := n.RemoteSyncCounts()
		if scans != wantScans || deltas != wantDeltas {
			t.Errorf("%s: sync scans %d deltas %d, want scans %d deltas %d",
				when, scans, deltas, wantScans, wantDeltas)
		}
	}

	// Cold: the one referenced remote relation scans exactly once.
	ask(5, 1, 0, "cold query")
	ask(5, 1, 0, "warm query")
	// A live insert moves the fingerprint; the mirror holds a replica at
	// a known version, so the refresh ships one change record.
	if err := m1.Insert("subject", subjectRow("Databases", 60)); err != nil {
		t.Fatal(err)
	}
	ask(6, 1, 1, "after live insert")

	// Restart: checkpoint, close, recover from disk, serve the recovered
	// incarnation through the same transport handle.
	preDigest := store.Digest(m1.Store)
	preVer := m1.Store.Get("subject").Version()
	if err := m1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m1.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	m2, err := OpenDurablePeer("mit", dir, subjectSchema)
	if err != nil {
		t.Fatalf("reopen durable peer: %v", err)
	}
	defer m2.ClosePersist()
	if got := store.Digest(m2.Store); got != preDigest {
		t.Fatalf("recovered digest %s, want %s", got, preDigest)
	}
	if got := m2.Store.Get("subject").Version(); got != preVer {
		t.Fatalf("recovered subject version %d, want %d", got, preVer)
	}
	if got := m2.SchemaVersion(); got != m1.SchemaVersion() {
		t.Fatalf("recovered schema version %d, want %d", got, m1.SchemaVersion())
	}
	st.swap(NewLoopback(m2))

	// The restart is invisible: fingerprints match, nothing moves.
	ask(6, 1, 1, "warm query across restart")

	// A post-restart insert reaches the mirror as one Delta record — the
	// rejoin ships records, not relations.
	if err := m2.Insert("subject", subjectRow("Networks", 45)); err != nil {
		t.Fatal(err)
	}
	ask(7, 1, 2, "delta after restart")

	// A checkpoint retires the log range the mirror would need next, so
	// the following refresh falls back to exactly one full scan.
	if err := m2.Insert("subject", subjectRow("Crypto", 30)); err != nil {
		t.Fatal(err)
	}
	if err := m2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ask(8, 2, 2, "scan fallback after checkpoint")
}

// TestServingDeltaContract pins the serving-side guards: an in-memory
// peer never claims delta coverage, and a durable peer refuses for a
// relation it does not store.
func TestServingDeltaContract(t *testing.T) {
	plain := NewPeer("plain", relation.NewSchema("r", relation.Attr("a")))
	if _, ok := plain.ServingDelta("r", 0); ok {
		t.Error("in-memory peer claimed delta coverage")
	}
	durable, err := OpenDurablePeer("d", t.TempDir(), relation.NewSchema("r", relation.Attr("a")))
	if err != nil {
		t.Fatal(err)
	}
	defer durable.ClosePersist()
	if _, ok := durable.ServingDelta("ghost", 0); ok {
		t.Error("durable peer claimed coverage for an unknown relation")
	}
	if err := durable.Insert("r", relation.Tuple{relation.SV("x")}); err != nil {
		t.Fatal(err)
	}
	recs, ok := durable.ServingDelta("r", 0)
	if !ok || len(recs) != 1 {
		t.Errorf("ServingDelta(r, 0) = %d records covered=%v, want 1 covered", len(recs), ok)
	}
}

// TestOpenDurablePeerIdempotentSchemas reopens a durable peer with the
// same schema list: already-recovered schemas must not be re-logged, so
// the schema version is stable across restarts.
func TestOpenDurablePeerIdempotentSchemas(t *testing.T) {
	dir := t.TempDir()
	s := relation.NewSchema("r", relation.Attr("a"))
	p, err := OpenDurablePeer("p", dir, s)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.SchemaVersion(); got != 1 {
		t.Fatalf("fresh durable peer schema version %d, want 1", got)
	}
	if err := p.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurablePeer("p", dir, s)
	if err != nil {
		t.Fatal(err)
	}
	defer re.ClosePersist()
	if got := re.SchemaVersion(); got != 1 {
		t.Errorf("reopened schema version %d, want 1 (schema re-logged?)", got)
	}
	// A genuinely new schema still registers and logs.
	re.AddSchema(relation.NewSchema("s", relation.Attr("b")))
	if got := re.SchemaVersion(); got != 2 {
		t.Errorf("schema version after AddSchema %d, want 2", got)
	}
}
