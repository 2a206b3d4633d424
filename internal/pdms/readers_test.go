package pdms

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/relation"
)

// TestRemoteReadersTakeNoLock holds remoteMu's write side — standing in
// for a query prepare stuck on a hung peer — and requires every reader
// of remote data to answer anyway: GlobalDB, LocalQuery at a remote
// peer and EstimateCost read published replica snapshots, not the
// records the lock guards.
func TestRemoteReadersTakeNoLock(t *testing.T) {
	n, _, _ := remoteChainNetwork(t)
	q := cq.MustParse("q(N) :- subject(N, E)")
	if _, err := n.Answer("mit", q, ReformOptions{}); err != nil { // syncs the replicas
		t.Fatal(err)
	}
	n.remoteMu.Lock()
	defer n.remoteMu.Unlock()
	for _, c := range []struct {
		name string
		read func() error
	}{
		{"GlobalDB", func() error {
			if r := n.GlobalDB().Get("mit.subject"); r == nil || r.Len() != 1 {
				return fmt.Errorf("mit.subject = %v, want the synced row", r)
			}
			return nil
		}},
		{"LocalQuery", func() error {
			cur, err := n.LocalQuery(context.Background(), "mit", q)
			if err != nil {
				return err
			}
			if res, err := cur.Materialize(); err != nil || res.Len() != 1 {
				return fmt.Errorf("answers %v, %v; want the synced row", res, err)
			}
			return nil
		}},
		{"EstimateCost", func() error {
			_, err := n.EstimateCost("berkeley", cq.MustParse("q(T) :- course(T, S)"), CostModel{})
			return err
		}},
	} {
		done := make(chan error, 1)
		go func() { done <- c.read() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("%s still blocked after 2s while remoteMu is held", c.name)
		}
	}
}

// TestRemoteSnapshotsStayWhole is the race-detector stress test of the
// published replicas. Readers loop over GlobalDB, LocalQuery and
// EstimateCost while one goroutine runs cold queries (InvalidateCaches
// before each, so every query re-scans the replicas it reads) and a
// push subscription applies the origin's inserts and deletes. Every
// remote relation in every snapshot a reader took must be a state the
// origin passed through: its (Version, Len) pair, and its rows, must be
// in the origin's recorded history. The writer waits for each change to
// be applied before the next, so at most one commit is ever in flight:
// a Scan response carries no version, and a scan raced by more than one
// mutation keeps its probed stamp, a (version, rows) pair the origin
// never had, which this test would report (see scanRung).
func TestRemoteSnapshotsStayWhole(t *testing.T) {
	n, _, served := remoteChainNetwork(t)
	q := cq.MustParse("q(N) :- subject(N, E)")
	if _, err := n.Answer("mit", q, ReformOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := n.StartPush(ctx, "mit"); err != nil {
		t.Fatal(err)
	}
	defer n.StopPush("mit")
	if err := n.WaitPushLive(ctx, "mit"); err != nil {
		t.Fatal(err)
	}

	type state struct {
		ver  uint64
		rows int
	}
	origins := map[string]*relation.Relation{
		"mit.subject":     served["mit"].Store.Get("subject"),
		"oxford.offering": served["oxford"].Store.Get("offering"),
	}
	// history maps each origin relation's states to their sorted rows;
	// only the writer adds to it, and readers are checked against it at
	// the end.
	history := make(map[string]map[state]string)
	for name, r := range origins {
		history[name] = map[state]string{{0, 0}: string(sortedWire(nil)), {r.Version(), r.Len()}: string(sortedWire(r.Rows()))}
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	seen := make([]map[string]map[state]string, 3)
	errs := make(chan error, 8)
	observe := func(into map[string]map[state]string, db *relation.Database) {
		for name := range origins {
			r := db.Get(name)
			if into[name] == nil {
				into[name] = make(map[state]string)
			}
			into[name][state{r.Version(), r.Len()}] = string(sortedWire(r.Rows()))
		}
	}
	for i := range seen {
		seen[i] = make(map[string]map[state]string)
	}
	// Readers.
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				observe(seen[i], n.GlobalDB())
				if _, err := n.LocalAnswer("mit", q); err != nil {
					errs <- fmt.Errorf("LocalAnswer: %w", err)
					return
				}
				if _, err := n.EstimateCost("berkeley", cq.MustParse("q(T) :- course(T, S)"), CostModel{}); err != nil {
					errs <- fmt.Errorf("EstimateCost: %w", err)
					return
				}
			}
		}()
	}
	// Cold queries.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			n.InvalidateCaches()
			if _, err := n.Answer("mit", q, ReformOptions{}); err != nil {
				errs <- fmt.Errorf("cold query: %w", err)
				return
			}
			observe(seen[2], n.GlobalDB())
		}
	}()

	// The writer: the origin's only mutator, so it records each state it
	// commits before waiting for the coordinator to apply it.
	subject := origins["mit.subject"]
	for i := range 150 {
		var err error
		if i%3 == 2 {
			_, err = served["mit"].Delete("subject", relation.Tuple{relation.SV(fmt.Sprintf("w%d", i-1)), relation.IV(int64(i - 1))})
		} else {
			err = served["mit"].Insert("subject", relation.Tuple{relation.SV(fmt.Sprintf("w%d", i)), relation.IV(int64(i))})
		}
		if err != nil {
			t.Fatal(err)
		}
		history["mit.subject"][state{subject.Version(), subject.Len()}] = string(sortedWire(subject.Rows()))
		if err := n.WaitPushApplied(ctx, "mit", "subject", subject.Version()); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, s := range seen {
		for name, states := range s {
			for st, rows := range states {
				want, ok := history[name][st]
				switch {
				case !ok:
					t.Errorf("%s: a snapshot at (v%d, %d rows), a state the origin never passed through", name, st.ver, st.rows)
				case rows != want:
					t.Errorf("%s: a snapshot at (v%d, %d rows) holds rows the origin did not hold there", name, st.ver, st.rows)
				}
			}
		}
	}
}
