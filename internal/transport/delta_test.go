package transport

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/pdms"
	"repro/internal/relation"
)

// durableServedPeer opens a durable peer named "served" in a fresh
// directory with rows inserted through the logging path.
func durableServedPeer(t *testing.T, rows int) *pdms.Peer {
	t.Helper()
	p, err := pdms.OpenDurablePeer("served", t.TempDir(),
		relation.NewSchema("course", relation.Attr("title"), relation.IntAttr("size")))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.ClosePersist() })
	for i := 0; i < rows; i++ {
		if err := p.Insert("course", relation.Tuple{
			relation.SV(fmt.Sprintf("c%04d", i)), relation.IV(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestDeltaTCPMatchesLoopback runs the same Delta conversation through
// the TCP client and the loopback transport: record-for-record equality,
// including the empty covered delta at the current version.
func TestDeltaTCPMatchesLoopback(t *testing.T) {
	p := durableServedPeer(t, 5)
	_, addr := startServer(t, p)
	c := dialT(t, addr)
	lb := pdms.NewLoopback(p)
	ctx := context.Background()
	for _, since := range []uint64{0, 2, 5} {
		recsTCP, okTCP, err := c.Delta(ctx, "served", "course", since)
		if err != nil {
			t.Fatalf("tcp delta since %d: %v", since, err)
		}
		recsLB, okLB, err := lb.Delta(ctx, "served", "course", since)
		if err != nil {
			t.Fatalf("loopback delta since %d: %v", since, err)
		}
		if okTCP != okLB {
			t.Fatalf("since %d: tcp covered=%v, loopback covered=%v", since, okTCP, okLB)
		}
		if fmt.Sprintf("%+v", recsTCP) != fmt.Sprintf("%+v", recsLB) {
			t.Fatalf("since %d: records differ:\ntcp %+v\nloopback %+v", since, recsTCP, recsLB)
		}
		if want := 5 - int(since); len(recsTCP) != want {
			t.Fatalf("since %d: %d records, want %d", since, len(recsTCP), want)
		}
	}
}

// TestDeltaUnavailableKeepsConnection covers every fall-back answer:
// a checkpointed-away range, a non-durable peer, and an unknown
// relation all yield (nil, false, nil) — a clean "rescan" signal, not an
// error — and the connection survives to serve the next requests (a
// closed one would cost a fresh dial, which the listener would see).
func TestDeltaUnavailableKeepsConnection(t *testing.T) {
	durable := durableServedPeer(t, 4)
	_, addr, ln := startCountingServer(t, durable)
	c := dialT(t, addr)
	ctx := context.Background()

	if err := durable.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	recs, ok, err := c.Delta(ctx, "served", "course", 0)
	if err != nil || ok || recs != nil {
		t.Fatalf("checkpointed range: recs=%v ok=%v err=%v, want nil false nil", recs, ok, err)
	}
	// The same connection keeps serving after the request-level error.
	st, err := c.State(ctx, "served")
	if err != nil {
		t.Fatalf("state after delta-unavailable: %v", err)
	}
	if len(st.Relations) != 1 || st.Relations[0].Stats.Rows != 4 {
		t.Fatalf("state after delta-unavailable: %+v", st.Relations)
	}
	if _, ok, err := c.Delta(ctx, "served", "ghost", 0); err != nil || ok {
		t.Fatalf("unknown relation: ok=%v err=%v, want false nil", ok, err)
	}
	if got := ln.accepts.Load(); got != 1 {
		t.Fatalf("%d connections across three exchanges, want the one Dial opened", got)
	}

	plain := servedPeer(t, 3)
	_, addr2 := startServer(t, plain)
	c2 := dialT(t, addr2)
	if _, ok, err := c2.Delta(ctx, "served", "course", 0); err != nil || ok {
		t.Fatalf("non-durable peer: ok=%v err=%v, want false nil", ok, err)
	}
}

// TestDeltaAfterLiveInserts asserts the serving side tracks mutations
// made while the server is up: records appended after the client's
// first sync arrive on the next Delta call, with fingerprints that
// chain.
func TestDeltaAfterLiveInserts(t *testing.T) {
	p := durableServedPeer(t, 3)
	_, addr := startServer(t, p)
	c := dialT(t, addr)
	ctx := context.Background()
	cur := uint64(3)
	if err := p.Insert("course", relation.Tuple{relation.SV("late"), relation.IV(99)}); err != nil {
		t.Fatal(err)
	}
	recs, ok, err := c.Delta(ctx, "served", "course", cur)
	if err != nil || !ok {
		t.Fatalf("delta: ok=%v err=%v", ok, err)
	}
	if len(recs) != 1 || recs[0].Op != relation.ChangeInsert ||
		recs[0].Ver != cur+1 || recs[0].Rows != 4 {
		t.Fatalf("delta records = %+v, want one insert at ver %d rows 4", recs, cur+1)
	}
	if !recs[0].Tuple.Equal(relation.Tuple{relation.SV("late"), relation.IV(99)}) {
		t.Fatalf("delta tuple = %v", recs[0].Tuple)
	}
}
