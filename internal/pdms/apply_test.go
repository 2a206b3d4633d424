package pdms

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/relation"
	"repro/internal/store"
)

// tamperTransport serves a durable peer through a Loopback, optionally
// rewriting the records of Delta responses and failing Scans as if the
// peer were unreachable — the two faults the never-publish-partial test
// needs to hold a refused apply still long enough to look at it.
// ExecPlan and Subscribe are refused (mirrorOnly), so blocking scans
// blocks every way rows could reach the replica.
type tamperTransport struct {
	mirrorOnly
	mu         sync.Mutex
	mangle     func([]relation.ChangeRecord) []relation.ChangeRecord
	blockScans bool
}

func (tt *tamperTransport) set(mangle func([]relation.ChangeRecord) []relation.ChangeRecord, blockScans bool) {
	tt.mu.Lock()
	tt.mangle, tt.blockScans = mangle, blockScans
	tt.mu.Unlock()
}

func (tt *tamperTransport) Delta(ctx context.Context, peer, rel string, since uint64) ([]relation.ChangeRecord, bool, error) {
	recs, covered, err := tt.Transport.Delta(ctx, peer, rel, since)
	tt.mu.Lock()
	mangle := tt.mangle
	tt.mu.Unlock()
	if err == nil && covered && mangle != nil {
		recs = mangle(recs)
	}
	return recs, covered, err
}

func (tt *tamperTransport) Scan(ctx context.Context, peer, rel string, deliver func([]relation.Tuple) error) error {
	tt.mu.Lock()
	blocked := tt.blockScans
	tt.mu.Unlock()
	if blocked {
		return fmt.Errorf("%w: scans blocked by the test", ErrPeerUnreachable)
	}
	return tt.Transport.Scan(ctx, peer, rel, deliver)
}

// badRuns are the ways a change run can disagree with the replica it is
// meant for. Each takes a consistent run of at least three records and
// spoils the middle one.
var badRuns = []struct {
	name  string
	spoil func(recs []relation.ChangeRecord)
}{
	{"wrong relation", func(recs []relation.ChangeRecord) { recs[1].Rel = "lab" }},
	{"non-advancing version", func(recs []relation.ChangeRecord) { recs[1].Ver = recs[0].Ver }},
	{"row-count mismatch", func(recs []relation.ChangeRecord) { recs[1].Rows += 2 }},
	{"schema-incompatible tuple", func(recs []relation.ChangeRecord) {
		recs[1].Tuple = relation.Tuple{relation.IV(1), relation.IV(2)}
	}},
	{"delete of an absent tuple", func(recs []relation.ChangeRecord) {
		recs[1].Op = relation.ChangeDelete
		recs[1].Tuple = subjectRow("never inserted", 0)
		recs[1].Rows = recs[0].Rows - 1
	}},
}

// TestRefusedRunNeverTouchesReplica makes the replication invariant
// executable: a replica any reader can see equals the origin at the
// fingerprint recorded for it, and a run that fails verification leaves
// replica and fingerprint exactly as they were. For every kind of bad
// run, on the push path and on the delta path: the run arrives while
// scans are blocked, so the refusal cannot be papered over; the
// replica's rows, its own (version, rows) and its synced bit must be
// byte-identical to before; a stale-tolerant query must answer from
// that last-good replica, never a half-applied one; and once scans are
// back the next query heals by scan and lands on the origin.
func TestRefusedRunNeverTouchesReplica(t *testing.T) {
	subject := relation.NewSchema("subject", relation.Attr("name"), relation.IntAttr("enrollment"))
	lab := relation.NewSchema("lab", relation.Attr("name"), relation.IntAttr("size"))
	origin, err := OpenDurablePeer("mit", t.TempDir(), subject, lab)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.ClosePersist()
	for i := 0; i < 20; i++ {
		if err := origin.Insert("subject", subjectRow(fmt.Sprintf("seed%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	n := NewNetwork()
	n.DownProbeInterval = time.Hour // no background prober traffic during the test
	home := NewPeer("berkeley", relation.NewSchema("course", relation.Attr("title"), relation.IntAttr("size")))
	if err := n.AddPeer(home); err != nil {
		t.Fatal(err)
	}
	tt := &tamperTransport{mirrorOnly: mirrorOnly{NewLoopback(origin)}}
	rp, err := n.AddRemotePeer(context.Background(), "mit", tt)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddMapping(glav.MustNew("m2b", "mit", cq.MustParse("m(T, S) :- subject(T, S)"),
		"berkeley", cq.MustParse("m(T, S) :- course(T, S)"))); err != nil {
		t.Fatal(err)
	}
	req := Request{Peer: "berkeley", Query: cq.MustParse("q(T, S) :- course(T, S)")}
	answer := func(allowStale bool) ([]byte, *Cursor) {
		t.Helper()
		r := req
		r.AllowStale = allowStale
		rel, cur := answerRows(t, n, r)
		return sortedWire(rel.Rows()), cur
	}
	// image is everything a reader could observe of the replica.
	image := func() string {
		replica := rp.rels["subject"].replica
		return fmt.Sprintf("%p v%d n%d synced%v rows%x", replica, replica.Version(), replica.Len(),
			rp.rels["subject"].synced, relation.EncodeTupleBatch(replica.Rows()))
	}
	// checkCurrent asserts the invariant's positive half after a heal.
	checkCurrent := func(when string) {
		t.Helper()
		replica, src := rp.rels["subject"].replica, origin.Store.Get("subject")
		synced, current := rp.replica("subject")
		if synced != replica || !current || replica.Version() != src.Version() || replica.Len() != src.Len() {
			t.Errorf("%s: synced %v, current %v, replica (v%d, %d rows), origin (v%d, %d rows)", when,
				synced != nil, current, replica.Version(), replica.Len(), src.Version(), src.Len())
		}
		if !bytes.Equal(sortedWire(replica.Rows()), sortedWire(src.Rows())) {
			t.Errorf("%s: replica rows differ from the origin's", when)
		}
	}
	answer(false) // cold fill
	checkCurrent("cold fill")

	feed, _, _ := origin.FeedSubscribe(nil, 0)
	defer feed.Close()
	seq := 0
	// mutate commits three inserts (one with a delete in front, to cover a
	// run that cannot be verified without applying) and returns their
	// change records exactly as the origin pushed them.
	mutate := func(withDelete bool) []relation.ChangeRecord {
		t.Helper()
		if withDelete {
			victim := subjectRow(fmt.Sprintf("seed%d", seq%20), int64(seq%20))
			if removed, err := origin.Delete("subject", victim); err != nil || removed != 1 {
				t.Fatalf("delete of %v removed %d (%v)", victim, removed, err)
			}
		}
		for i := 0; i < 3; i++ {
			seq++
			if err := origin.Insert("subject", subjectRow(fmt.Sprintf("new%d", seq), int64(seq))); err != nil {
				t.Fatal(err)
			}
		}
		recs, err := feed.Next()
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}

	for _, path := range []string{"push", "delta"} {
		for i, bad := range badRuns {
			name := path + "/" + bad.name
			before := image()
			lastGood, _ := answer(true)
			scansBefore, _, _ := n.RemoteSyncCounts()
			run := mutate(i%2 == 1)
			// spoil damages the middle one of the run's three trailing
			// inserts; a leading delete stays intact.
			spoil := func(recs []relation.ChangeRecord) []relation.ChangeRecord {
				out := append([]relation.ChangeRecord(nil), recs...)
				bad.spoil(out[len(out)-3:])
				return out
			}
			// Every catch-up this round sees the spoiled run, and no scan can
			// rescue it until the replica has been inspected.
			tt.set(spoil, true)
			if path == "push" {
				if err := n.applyPushBatch(rp, spoil(run)); err != nil {
					t.Fatalf("%s: applyPushBatch: %v", name, err)
				}
				if got := image(); got != before {
					t.Fatalf("%s: the refused push moved the replica\n before %s\n after  %s", name, before, got)
				}
			}
			stale, cur := answer(true)
			if got := image(); got != before {
				t.Fatalf("%s: the refused run moved the replica\n before %s\n after  %s", name, before, got)
			}
			if len(cur.Degraded()) != 1 {
				t.Errorf("%s: degraded peers = %v, want mit alone", name, cur.Degraded())
			}
			if !bytes.Equal(stale, lastGood) {
				t.Errorf("%s: the stale-tolerant answer is not the last-good replica's", name)
			}
			// Scans come back; the records stay spoiled, so only a scan heals.
			tt.set(spoil, false)
			answer(false)
			if scans, _, _ := n.RemoteSyncCounts(); scans != scansBefore+1 {
				t.Errorf("%s: sync scans %d -> %d, want exactly one healing scan", name, scansBefore, scans)
			}
			checkCurrent(name + ", healed")
		}
	}

	// And the positive case on both paths: consistent runs — one of plain
	// inserts, one led by a delete — advance the replica to the origin.
	tt.set(nil, false)
	for i, path := range []string{"push", "push", "delta", "delta"} {
		replica := rp.rels["subject"].replica
		recs := mutate(i%2 == 1)
		_, deltasBefore, _ := n.RemoteSyncCounts()
		if path == "push" {
			if err := n.applyPushBatch(rp, recs); err != nil {
				t.Fatal(err)
			}
		} else {
			answer(false)
			if _, deltas, _ := n.RemoteSyncCounts(); deltas != deltasBefore+1 {
				t.Errorf("consistent %s run %d: sync deltas %d -> %d, want one catch-up", path, i, deltasBefore, deltas)
			}
		}
		checkCurrent(fmt.Sprintf("consistent %s run %d", path, i))
		if inPlace := rp.rels["subject"].replica == replica; inPlace != (i%2 == 0) {
			t.Errorf("consistent %s run %d: replica advanced in place = %v, want %v (only a delete builds a replacement)",
				path, i, inPlace, i%2 == 0)
		}
	}
}

// TestApplyPathsDifferential feeds one random record stream — inserts,
// deletes, schema additions — to the three callers of the verified apply
// and checks they all land where a cold rescan does: a coordinator fed by
// push, a coordinator catching up by delta, and a restart replaying the
// write-ahead log, each byte-identical in sorted-wire digest (and, for
// the three that carry it, in fingerprint) to a coordinator that only
// ever scanned the final state.
func TestApplyPathsDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		subject := relation.NewSchema("subject", relation.Attr("name"), relation.IntAttr("enrollment"))
		origin, err := OpenDurablePeer("mit", dir, subject)
		if err != nil {
			t.Fatal(err)
		}
		var live []relation.Tuple
		insert := func() {
			row := subjectRow(fmt.Sprintf("s%d", rng.Intn(60)), int64(rng.Intn(4)))
			if err := origin.Insert("subject", row); err != nil {
				t.Fatal(err)
			}
			live = append(live, row)
		}
		for i := 0; i < 30; i++ {
			insert()
		}
		coordinator := func() (*Network, *RemotePeer) {
			n := NewNetwork()
			home := NewPeer("berkeley", relation.NewSchema("course", relation.Attr("title"), relation.IntAttr("size")))
			if err := n.AddPeer(home); err != nil {
				t.Fatal(err)
			}
			rp, err := n.AddRemotePeer(context.Background(), "mit", NewLoopback(origin))
			if err != nil {
				t.Fatal(err)
			}
			if err := n.AddMapping(glav.MustNew("m2b", "mit", cq.MustParse("m(T, S) :- subject(T, S)"),
				"berkeley", cq.MustParse("m(T, S) :- course(T, S)"))); err != nil {
				t.Fatal(err)
			}
			return n, rp
		}
		req := Request{Peer: "berkeley", Query: cq.MustParse("q(T, S) :- course(T, S)")}
		pushNet, pushRP := coordinator()
		deltaNet, deltaRP := coordinator()
		answerRows(t, pushNet, req) // cold fills, before the stream
		answerRows(t, deltaNet, req)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := pushNet.StartPush(ctx, "mit"); err != nil {
			t.Fatal(err)
		}
		if err := pushNet.WaitPushLive(ctx, "mit"); err != nil {
			t.Fatal(err)
		}

		extras := 0
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(100); {
			case op < 65 || len(live) == 0:
				insert()
			case op < 95:
				victim := live[rng.Intn(len(live))]
				removed, err := origin.Delete("subject", victim)
				if err != nil || removed == 0 {
					t.Fatalf("seed %d step %d: delete removed %d (%v)", seed, step, removed, err)
				}
				kept := live[:0]
				for _, row := range live {
					if !row.Equal(victim) {
						kept = append(kept, row)
					}
				}
				live = kept
			default:
				extras++
				origin.AddSchema(relation.NewSchema(fmt.Sprintf("extra%d", extras), relation.Attr("a")))
			}
		}
		src := origin.Store.Get("subject")
		want, wantVer, wantRows := sortedWire(src.Rows()), src.Version(), src.Len()
		wantRels := fmt.Sprint(origin.RelationNames())

		if err := pushNet.WaitPushApplied(ctx, "mit", "subject", wantVer); err != nil {
			t.Fatalf("seed %d: push never caught up: %v", seed, err)
		}
		pushNet.StopPush("mit") // joins the applier: the mirror is ours to read
		cancel()
		scans, deltas, _ := pushNet.RemoteSyncCounts()
		if scans != 1 || deltas != 0 {
			t.Errorf("seed %d: push coordinator synced by %d scans %d deltas, want the cold fill alone", seed, scans, deltas)
		}
		_, cur := answerRows(t, deltaNet, req)
		if scans, deltas, _ := deltaNet.RemoteSyncCounts(); scans != 1 || deltas != 1 {
			t.Errorf("seed %d: delta coordinator synced by %d scans %d deltas (%v), want one catch-up", seed, scans, deltas, cur.SyncPaths())
		}
		scanNet, scanRP := coordinator()
		answerRows(t, scanNet, req)
		if err := origin.ClosePersist(); err != nil {
			t.Fatal(err)
		}
		replayed, err := store.Open(dir)
		if err != nil {
			t.Fatalf("seed %d: replaying the log: %v", seed, err)
		}
		if replayed.Recovered().Replayed == 0 {
			t.Errorf("seed %d: recovery replayed no records", seed)
		}

		for name, got := range map[string]*relation.Relation{
			"push":       pushRP.rels["subject"].replica,
			"delta":      deltaRP.rels["subject"].replica,
			"wal replay": replayed.Database().Get("subject"),
			"cold scan":  scanRP.rels["subject"].replica,
		} {
			if !bytes.Equal(sortedWire(got.Rows()), want) {
				t.Errorf("seed %d: %s landed on different rows than the origin (%d vs %d)", seed, name, got.Len(), src.Len())
			}
			if got.Version() != wantVer || got.Len() != wantRows {
				t.Errorf("seed %d: %s landed on fingerprint (v%d, %d rows), origin is at (v%d, %d rows)",
					seed, name, got.Version(), got.Len(), wantVer, wantRows)
			}
			if d := got.Encoding(); d == nil || d.Len() != got.Len() {
				t.Errorf("seed %d: %s lost its dictionary encoding", seed, name)
			}
		}
		for name, rels := range map[string][]string{
			"push":       slices.Sorted(maps.Keys(pushRP.schemas.Load().byName)),
			"delta":      slices.Sorted(maps.Keys(deltaRP.schemas.Load().byName)),
			"wal replay": replayed.Database().Names(),
			"cold scan":  slices.Sorted(maps.Keys(scanRP.schemas.Load().byName)),
		} {
			if fmt.Sprint(rels) != wantRels {
				t.Errorf("seed %d: %s knows relations %v, origin has %s", seed, name, rels, wantRels)
			}
		}
		if err := replayed.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// applyFixture is a coordinator mirroring one remote relation of the
// given size, ready to take synthesized push batches.
type applyFixture struct {
	n    *Network
	rp   *RemotePeer
	next int
}

func newApplyFixture(t *testing.T, rows int) *applyFixture {
	t.Helper()
	fact := relation.NewSchema("fact", relation.Attr("key"), relation.Attr("payload"))
	src := NewPeer("src", fact)
	for i := 0; i < rows; i++ {
		if err := src.Insert("fact", relation.Tuple{
			relation.SV(fmt.Sprintf("k%d", i%64)), relation.SV(fmt.Sprintf("p%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	n := NewNetwork()
	home := NewPeer("home", fact)
	if err := n.AddPeer(home); err != nil {
		t.Fatal(err)
	}
	rp, err := n.AddRemotePeer(context.Background(), "src", NewLoopback(src))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddMapping(glav.MustNew("s2h", "src", cq.MustParse("m(K, P) :- fact(K, P)"),
		"home", cq.MustParse("m(K, P) :- fact(K, P)"))); err != nil {
		t.Fatal(err)
	}
	answerRows(t, n, Request{Peer: "home", Query: cq.MustParse("q(K, P) :- fact(K, P)")})
	return &applyFixture{n: n, rp: rp, next: rows}
}

// applyOne pushes one synthesized insert and takes what the next reader
// takes: the global snapshot and the replica's probe index.
func (f *applyFixture) applyOne() error {
	replica := f.rp.rels["fact"].replica
	rec := relation.ChangeRecord{Op: relation.ChangeInsert, Rel: "fact",
		Ver: replica.Version() + 1, Rows: replica.Len() + 1,
		Tuple: relation.Tuple{relation.SV(fmt.Sprintf("k%d", f.next%64)), relation.SV(fmt.Sprintf("p%d", f.next))}}
	f.next++
	if err := f.n.applyPushBatch(f.rp, []relation.ChangeRecord{rec}); err != nil {
		return err
	}
	snap := f.n.GlobalDB().Get("src.fact")
	if snap.Len() != rec.Rows || snap.EnsureCodeIndex(0) == nil {
		return fmt.Errorf("snapshot after apply has %d rows, want %d, or no index", snap.Len(), rec.Rows)
	}
	return nil
}

// TestApplyCostIndependentOfReplicaSize is the deterministic proxy for
// "a replica advances in O(records) and a snapshot in O(arity)": over 256
// consecutive one-row applies, each followed by the next global snapshot
// and probe-index lookup, the mean allocation count must not depend on
// whether the replica holds 5 000 or 50 000 rows, and the mean bytes —
// where amortised slice growth and the occasional index re-pack are the
// only size-dependent terms — must stay within 2x. (The parent commit
// spent 50 028 + 9 + 6 mallocs and 8.7 MB per apply at 50 000 rows.)
func TestApplyCostIndependentOfReplicaSize(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	const applies = 256
	measure := func(rows int) (mallocs, bytes float64) {
		f := newApplyFixture(t, rows)
		for i := 0; i < 8; i++ { // first index pack, first slice growth
			if err := f.applyOne(); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < applies; i++ {
			if err := f.applyOne(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / applies, float64(after.TotalAlloc-before.TotalAlloc) / applies
	}
	smallAllocs, smallBytes := measure(5000)
	largeAllocs, largeBytes := measure(50000)
	t.Logf("per apply+snapshot+index: 5 000 rows %.1f mallocs %.0f B; 50 000 rows %.1f mallocs %.0f B",
		smallAllocs, smallBytes, largeAllocs, largeBytes)
	const ceiling = 64
	if smallAllocs > ceiling || largeAllocs > ceiling {
		t.Errorf("mallocs per apply %.1f / %.1f, want under %d at either size", smallAllocs, largeAllocs, ceiling)
	}
	if d := largeAllocs - smallAllocs; d > 2 || d < -2 {
		t.Errorf("mallocs per apply grew with the replica: %.1f at 5 000 rows, %.1f at 50 000", smallAllocs, largeAllocs)
	}
	if largeBytes > 2*smallBytes || smallBytes > 2*largeBytes {
		t.Errorf("bytes per apply depend on replica size: %.0f at 5 000 rows, %.0f at 50 000", smallBytes, largeBytes)
	}
}
