package relation_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/pdms"
	"repro/internal/relation"
)

// imageRow is row k of the relations these tests recover.
func imageRow(k int) relation.Tuple {
	return relation.Tuple{relation.SV(fmt.Sprintf("k%d", k%16)), relation.SV(fmt.Sprintf("p%d", k))}
}

// TestRecoveredRelationBuildsNoRowImage holds the restart of a durable
// peer to its promise: the traffic a restarted node serves before any
// row is read — State, Delta, an Insert pushed to a subscriber, a
// Checkpoint — decodes no row. The first Scan builds the row image once;
// from then on a Scan allocates no more than the same Scan of a peer that
// never restarted.
func TestRecoveredRelationBuildsNoRowImage(t *testing.T) {
	schema := relation.NewSchema("fact", relation.Attr("k"), relation.Attr("p"))
	dir := t.TempDir()
	p, err := pdms.OpenDurablePeer("src", dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	const snapRows, logRows = 300, 20
	for k := 0; k < snapRows+logRows; k++ {
		if k == snapRows {
			if err := p.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Insert("fact", imageRow(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.ClosePersist(); err != nil {
		t.Fatal(err)
	}

	p, err = pdms.OpenDurablePeer("src", dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	defer p.ClosePersist()
	r := p.Store.Get("fact")
	if r.HasRowImage() {
		t.Fatal("recovery built the row image")
	}
	lb := pdms.NewLoopback(p)
	ctx := context.Background()
	if st, err := lb.State(ctx, "src"); err != nil || len(st.Relations) != 1 || st.Relations[0].Stats.Rows != snapRows+logRows {
		t.Fatalf("State = %+v, %v; want one relation of %d rows", st, err, snapRows+logRows)
	}
	if recs, ok, err := lb.Delta(ctx, "src", "fact", snapRows); err != nil || !ok || len(recs) != logRows {
		t.Fatalf("Delta since %d = %d records, %v, %v; want %d", snapRows, len(recs), ok, err, logRows)
	}

	subCtx, cancel := context.WithCancel(ctx)
	acked, pushed, done := make(chan struct{}), make(chan []relation.ChangeRecord, 1), make(chan error, 1)
	go func() {
		done <- lb.Subscribe(subCtx, "src", nil,
			func(pdms.PeerState) error { close(acked); return nil },
			func(recs []relation.ChangeRecord) error { pushed <- recs; return nil })
	}()
	<-acked
	if err := p.Insert("fact", imageRow(snapRows+logRows)); err != nil {
		t.Fatal(err)
	}
	if recs := <-pushed; len(recs) != 1 || recs[0].Rows != snapRows+logRows+1 {
		t.Fatalf("pushed %+v, want the one insert", recs)
	}
	cancel()
	<-done
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if r.HasRowImage() || p.Store.Get("fact") != r {
		t.Fatal("State, Delta, a pushed Insert or a Checkpoint built the row image")
	}

	scan := func(l *pdms.Loopback) int {
		n := 0
		if err := l.Scan(ctx, "src", "fact", func(b []relation.Tuple) error { n += len(b); return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := scan(lb); n != r.Len() || !r.HasRowImage() {
		t.Fatalf("first Scan: %d rows of %d, image built %v", n, r.Len(), r.HasRowImage())
	}
	image := &r.Rows()[0]
	scan(lb)
	if &r.Rows()[0] != image {
		t.Error("the second Scan rebuilt the row image")
	}
	want := pdms.NewPeer("src", schema)
	for k := 0; k <= snapRows+logRows; k++ {
		if err := want.Insert("fact", imageRow(k)); err != nil {
			t.Fatal(err)
		}
	}
	if got, wantRows := fmt.Sprint(r.Rows()), fmt.Sprint(want.Store.Get("fact").Rows()); got != wantRows {
		t.Fatalf("recovered rows differ from the never-restarted peer's:\n%s\nwant\n%s", got, wantRows)
	}
	if relation.RaceEnabled {
		return // race instrumentation allocates on its own
	}
	fresh := pdms.NewLoopback(want)
	recovered, never := testing.AllocsPerRun(20, func() { scan(lb) }), testing.AllocsPerRun(20, func() { scan(fresh) })
	if recovered > never {
		t.Errorf("a Scan of the recovered peer allocates %.0f times, of a peer that never restarted %.0f", recovered, never)
	}
}

// TestFirstRowReadersShareOneImage is the race check on the lazy row
// image: eight goroutines make the first reads of a freshly decoded
// relation through Rows, SnapshotAs, Contains, Len, Stats and
// EnsureCodeIndex at once. The image is built exactly once: every reader
// that reads rows sees the same backing array, holding the rows the
// relation was encoded from. Run it under -race.
func TestFirstRowReadersShareOneImage(t *testing.T) {
	schema := relation.NewSchema("r", relation.Attr("k"), relation.Attr("p"))
	src := relation.New(schema)
	for k := 0; k < 500; k++ {
		src.MustInsert(imageRow(k)...)
	}
	for round := 0; round < 20; round++ {
		r, err := relation.DecodeColumns(schema, relation.AppendColumns(nil, src), 0)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		images := make([][]relation.Tuple, 8)
		for g := range images {
			wg.Add(1)
			go func() {
				defer wg.Done()
				switch g % 6 {
				case 0:
					images[g] = r.Rows()
				case 1:
					images[g] = r.SnapshotAs("snap").Rows()
				case 2:
					if !r.Contains(imageRow(499)) {
						t.Error("Contains misses the last row")
					}
					images[g] = r.Rows()
				case 3:
					if r.Len() != 500 {
						t.Errorf("Len = %d, want 500", r.Len())
					}
				case 4:
					if st := r.Stats(); st.Rows != 500 || st.Distinct[0] != 16 {
						t.Errorf("Stats = %+v, want 500 rows and 16 distinct keys", st)
					}
				case 5:
					if ci := r.EnsureCodeIndex(0); len(ci.Rows(0)) != 500/16+1 {
						t.Errorf("code 0 indexes %d rows, want %d", len(ci.Rows(0)), 500/16+1)
					}
				}
			}()
		}
		wg.Wait()
		for g, rows := range images {
			if rows == nil {
				continue
			}
			if &rows[0] != &r.Rows()[0] {
				t.Fatalf("round %d: reader %d read another row image", round, g)
			}
			if fmt.Sprint(rows) != fmt.Sprint(src.Rows()) {
				t.Fatalf("round %d: reader %d read rows that differ from the encoded ones", round, g)
			}
		}
	}
}
