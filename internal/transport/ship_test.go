package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cq"
	"repro/internal/glav"
	"repro/internal/pdms"
	"repro/internal/relation"
	"repro/internal/workload"
)

// scanOnly is the "old node" in mixed networks: State, Schemas and Scan
// pass through to a full transport, while Delta, ExecPlan and Subscribe
// answer with the typed refusals of a node that predates them, so the
// coordinator must mirror.
type scanOnly struct{ pdms.Transport }

func (scanOnly) Delta(context.Context, string, string, uint64) ([]relation.ChangeRecord, bool, error) {
	return nil, false, nil
}

func (scanOnly) ExecPlan(context.Context, string, relation.SubPlan, func([]relation.Tuple) error) error {
	return fmt.Errorf("%w: scan-only test transport", pdms.ErrPlanUnsupported)
}

func (scanOnly) Subscribe(context.Context, string, map[string]uint64,
	func(pdms.PeerState) error, func([]relation.ChangeRecord) error) error {
	return fmt.Errorf("%w: scan-only test transport", pdms.ErrPushUnsupported)
}

// shipRequest is titleRequest with the given ship mode.
func shipRequest(g *workload.GeneratedNetwork, mode pdms.ShipMode) pdms.Request {
	req := titleRequest(g)
	req.Ship = mode
	return req
}

// countPaths tallies a request's per-relation sync paths.
func countPaths(t *testing.T, n *pdms.Network, req pdms.Request) map[string]int {
	t.Helper()
	cur, err := n.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	out := make(map[string]int)
	for _, sp := range cur.SyncPaths() {
		out[sp.Path]++
	}
	return out
}

// mixedCoordinator builds a network where peers below localUpTo are
// local and the rest remote, alternating between a plan-capable
// transport (even index) and a scan-only wrapper over it (odd index) —
// the heterogeneous network where new and old nodes coexist.
func mixedCoordinator(t *testing.T, g *workload.GeneratedNetwork, localUpTo int, tr pdms.Transport) *pdms.Network {
	t.Helper()
	n := pdms.NewNetwork()
	for i, p := range genPeers(g) {
		if i < localUpTo {
			if err := n.AddPeer(p); err != nil {
				t.Fatal(err)
			}
			continue
		}
		rtr := tr
		if i%2 == 1 {
			rtr = scanOnly{tr}
		}
		if _, err := n.AddRemotePeer(context.Background(), p.Name, rtr); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range g.Net.Mappings() {
		if err := n.AddMapping(m); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestShipPlanDifferential is the plan-shipping differential: the same
// randomized union workloads produce byte-identical answer sets whether
// remote relations are mirrored (the oracle) or refreshed by shipped
// sub-plans, over loopback, over TCP, and over a mixed network where
// only every other peer's transport can execute plans. The ship runs
// must actually ship (sync counters), and the mixed run must both ship
// and scan.
func TestShipPlanDifferential(t *testing.T) {
	for _, topo := range []workload.Topology{workload.Chain, workload.Random} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", topo, seed), func(t *testing.T) {
				spec := workload.NetworkSpec{Topology: topo, Peers: 8, Seed: seed,
					RowsPerPeer: 6, ExtraEdgeProb: 0.2}
				gen := func() *workload.GeneratedNetwork {
					g, err := workload.GenNetwork(spec)
					if err != nil {
						t.Fatal(err)
					}
					return g
				}
				gA, gB, gC, gD := gen(), gen(), gen(), gen()
				half := spec.Peers / 2

				loopNet := coordinator(t, gB, half, pdms.NewLoopback(genPeers(gB)[half:]...))
				_, addr := startServer(t, genPeers(gC)[half:]...)
				tcpNet := coordinator(t, gC, half, dialT(t, addr))
				_, addrD := startServer(t, genPeers(gD)[half:]...)
				mixedNet := mixedCoordinator(t, gD, half, dialT(t, addrD))

				want := answerDigest(t, gA.Net, titleRequest(gA))
				for round := 0; round < 2; round++ {
					if got := answerDigest(t, loopNet, shipRequest(gB, pdms.ShipAlways)); !bytes.Equal(got, want) {
						t.Errorf("round %d: loopback ship answers differ from in-process", round)
					}
					if got := answerDigest(t, tcpNet, shipRequest(gC, pdms.ShipAlways)); !bytes.Equal(got, want) {
						t.Errorf("round %d: TCP ship answers differ from in-process", round)
					}
					if got := answerDigest(t, mixedNet, shipRequest(gD, pdms.ShipAlways)); !bytes.Equal(got, want) {
						t.Errorf("round %d: mixed ship answers differ from in-process", round)
					}
					// Force every replica stale so the next round re-decides
					// its sync path instead of reusing fresh mirrors.
					loopNet.InvalidateCaches()
					tcpNet.InvalidateCaches()
					mixedNet.InvalidateCaches()
				}
				if _, _, ships := tcpNet.RemoteSyncCounts(); ships == 0 {
					t.Error("TCP ship run never shipped a plan")
				}
				scans, _, ships := mixedNet.RemoteSyncCounts()
				if ships == 0 {
					t.Error("mixed run never shipped a plan to its plan-capable peers")
				}
				if scans == 0 {
					t.Error("mixed run never scanned its scan-only peers")
				}
			})
		}
	}
}

// execCourse is the single-atom sub-plan streaming every course row.
func execCourse(budget uint64) relation.SubPlan {
	return relation.SubPlan{
		HeadVars: []string{"T", "S"},
		Atoms: []relation.SubPlanAtom{{Pred: "course", Args: []relation.SubPlanTerm{
			{IsVar: true, Var: "T"}, {IsVar: true, Var: "S"}}}},
		RowBudget: budget,
	}
}

// TestExecPlanTCP pins the happy path: a shipped single-atom plan
// streams every row back, batched, with the answer schema's arity.
func TestExecPlanTCP(t *testing.T) {
	p := servedPeer(t, 500)
	srv, addr := startServer(t, p)
	srv.BatchSize = 64
	c := dialT(t, addr)
	rows := 0
	err := c.ExecPlan(context.Background(), "served", execCourse(0), func(batch []relation.Tuple) error {
		for _, tp := range batch {
			if len(tp) != 2 {
				return fmt.Errorf("answer arity %d, want 2", len(tp))
			}
		}
		rows += len(batch)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 500 {
		t.Fatalf("shipped plan streamed %d rows, want 500", rows)
	}
}

// TestExecPlanCancelMidStreamTCP cancels the context from the deliver
// callback after the first batch of a shipped-plan stream: the client
// must surface ctx's error and must not pool the poisoned connection.
func TestExecPlanCancelMidStreamTCP(t *testing.T) {
	p := servedPeer(t, 500)
	srv, addr := startServer(t, p)
	srv.BatchSize = 64
	c := dialT(t, addr)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	batches := 0
	err := c.ExecPlan(ctx, "served", execCourse(0), func(batch []relation.Tuple) error {
		batches++
		if batches == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stream cancel: err = %v, want context.Canceled", err)
	}
	got := 0
	if err := c.ExecPlan(context.Background(), "served", execCourse(0), func(batch []relation.Tuple) error {
		got += len(batch)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 500 {
		t.Fatalf("post-cancel shipped plan saw %d rows, want 500", got)
	}
}

// TestExecPlanRequestLevelErrors asserts the two typed fallback errors
// are request-level: a row-budget overflow and an unexecutable plan
// both match ErrPlanUnsupported (so the coordinator mirrors) and leave
// the connection pooled — the very next request reuses it.
func TestExecPlanRequestLevelErrors(t *testing.T) {
	p := servedPeer(t, 500)
	srv, addr, ln := startCountingServer(t, p)
	srv.BatchSize = 64
	c := dialT(t, addr)
	dialled := ln.accepts.Load()

	err := c.ExecPlan(context.Background(), "served", execCourse(10),
		func([]relation.Tuple) error { return nil })
	if !errors.Is(err, pdms.ErrPlanBudget) {
		t.Fatalf("budget overflow: err = %v, want ErrPlanBudget", err)
	}
	if !errors.Is(err, pdms.ErrPlanUnsupported) {
		t.Fatalf("budget overflow: err = %v, must also match ErrPlanUnsupported", err)
	}

	ghost := execCourse(0)
	ghost.Atoms[0].Pred = "ghost"
	err = c.ExecPlan(context.Background(), "served", ghost, func([]relation.Tuple) error { return nil })
	if !errors.Is(err, pdms.ErrPlanUnsupported) {
		t.Fatalf("unknown relation: err = %v, want ErrPlanUnsupported", err)
	}
	if errors.Is(err, pdms.ErrPlanBudget) {
		t.Fatalf("unknown relation: err = %v, must not claim a budget overflow", err)
	}

	// Both errors were request-level: the next request runs on the same
	// pooled connection — a closed one would cost a fresh dial.
	st, err := c.State(context.Background(), "served")
	if err != nil {
		t.Fatalf("request after plan errors failed — connection poisoned? %v", err)
	}
	if got := ln.accepts.Load(); got != dialled {
		t.Fatalf("%d connections after two request-level errors, want the pooled %d", got, dialled)
	}
	if len(st.Relations) != 1 || st.Relations[0].Stats.Rows != 500 {
		t.Fatalf("state after plan errors: %+v", st)
	}
}

// TestExecPlanConnectionCut drops the wire mid-answer-stream: the
// client must fail typed as unreachable — never as the clean
// plan-unsupported fallback, which would silently mirror around a
// network fault — and must not pool the cut connection.
func TestExecPlanConnectionCut(t *testing.T) {
	p := servedPeer(t, 500)
	srv, addr, ln := startCountingServer(t, p)
	srv.BatchSize = 64
	c := dialT(t, dropProxy(t, addr, 1500))
	rows := 0
	err := c.ExecPlan(context.Background(), "served", execCourse(0), func(batch []relation.Tuple) error {
		rows += len(batch)
		return nil
	})
	if err == nil {
		t.Fatal("shipped plan over a dropped connection reported success")
	}
	if !errors.Is(err, pdms.ErrPeerUnreachable) {
		t.Fatalf("mid-stream cut: err = %v, want ErrPeerUnreachable class", err)
	}
	if errors.Is(err, pdms.ErrPlanUnsupported) {
		t.Fatalf("mid-stream cut: err = %v, must not look like a clean fallback", err)
	}
	if rows >= 500 {
		t.Fatalf("saw all %d rows despite the cut", rows)
	}
	if n := idleConns(c); n != 0 {
		t.Fatalf("%d connections pooled after the cut, want 0", n)
	}
	st, err := c.State(context.Background(), "served")
	if err != nil {
		t.Fatalf("request after cut failed: %v", err)
	}
	if got := ln.accepts.Load(); got != 2 {
		t.Fatalf("%d connections, want 2: the cut one and one fresh dial", got)
	}
	if len(st.Relations) != 1 || st.Relations[0].Stats.Rows != 500 {
		t.Fatalf("state after cut: %+v", st)
	}
}

// skewedHome builds the coordinator-side peer of the cold-remote-join
// scenario: dim holds dimKeys tail keys starting at firstKey, and fact
// exists empty (the query's vocabulary; the data lives at src).
func skewedHome(t *testing.T, firstKey, dimKeys int) *pdms.Peer {
	t.Helper()
	home := pdms.NewPeer("home",
		relation.NewSchema("fact", relation.Attr("key"), relation.Attr("payload")),
		relation.NewSchema("dim", relation.Attr("key"), relation.Attr("label")))
	for k := firstKey; k < firstKey+dimKeys; k++ {
		if err := home.Insert("dim", relation.Tuple{
			relation.SV(fmt.Sprintf("k%d", k)), relation.SV(fmt.Sprintf("l%d", k%7))}); err != nil {
			t.Fatal(err)
		}
	}
	return home
}

// skewedSrc builds the serving peer: the skewed 50k-row fact relation.
func skewedSrc(t *testing.T, factRows int) *pdms.Peer {
	t.Helper()
	db, _, err := workload.SkewedJoin(workload.SkewedJoinSpec{FactRows: factRows, DimKeys: 64, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	src := pdms.NewPeer("src", relation.NewSchema("fact", relation.Attr("key"), relation.Attr("payload")))
	for _, row := range db.Get("fact").Rows() {
		if err := src.Insert("fact", row); err != nil {
			t.Fatal(err)
		}
	}
	return src
}

// skewedNet wires home (local) to src (remote over tr) with the GAV
// mapping home.fact ⊇ src.fact.
func skewedNet(t *testing.T, home *pdms.Peer, tr pdms.Transport) *pdms.Network {
	t.Helper()
	n := pdms.NewNetwork()
	if err := n.AddPeer(home); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddRemotePeer(context.Background(), "src", tr); err != nil {
		t.Fatal(err)
	}
	m := glav.MustNew("src2home", "src", cq.MustParse("m(K, P) :- fact(K, P)"),
		"home", cq.MustParse("m(K, P) :- fact(K, P)"))
	if err := n.AddMapping(m); err != nil {
		t.Fatal(err)
	}
	return n
}

// skewedRequest is the join query posed at home with the given ship mode.
func skewedRequest(mode pdms.ShipMode) pdms.Request {
	return pdms.Request{
		Peer:   "home",
		Query:  cq.MustParse("q(P, L) :- fact(K, P), dim(K, L)"),
		Reform: pdms.ReformOptions{MaxDepth: 3},
		Ship:   mode,
	}
}

// TestShipPlanWireBytes10x is the acceptance bound: a cold remote query
// over a skewed 50k-row fact relation, joined against a selective local
// dimension, must move at least 10x fewer wire bytes when the fact atom
// ships as a bound sub-plan than when the relation mirrors — with
// byte-identical answers.
func TestShipPlanWireBytes10x(t *testing.T) {
	src := skewedSrc(t, 50000)
	_, addr := startServer(t, src)

	mirrorClient := dialT(t, addr)
	mirrorNet := skewedNet(t, skewedHome(t, 40, 8), mirrorClient)
	shipClient := dialT(t, addr)
	shipNet := skewedNet(t, skewedHome(t, 40, 8), shipClient)

	mirrorBase, shipBase := mirrorClient.WireBytes(), shipClient.WireBytes()
	mirrorDigest := answerDigest(t, mirrorNet, skewedRequest(pdms.ShipNever))
	shipDigest := answerDigest(t, shipNet, skewedRequest(pdms.ShipAlways))
	if len(mirrorDigest) == 0 {
		t.Fatal("empty mirror answer digest")
	}
	if !bytes.Equal(mirrorDigest, shipDigest) {
		t.Fatal("shipped answers differ from mirrored answers")
	}
	if paths := countPaths(t, shipNet, skewedRequest(pdms.ShipAlways)); paths["ship"] == 0 {
		t.Fatalf("ship run took no ship path: %v", paths)
	}

	mirrorBytes := mirrorClient.WireBytes() - mirrorBase
	shipBytes := shipClient.WireBytes() - shipBase
	if shipBytes == 0 {
		t.Fatal("ship run moved zero wire bytes")
	}
	if mirrorBytes < 10*shipBytes {
		t.Fatalf("ship moved %d wire bytes vs mirror's %d — want >= 10x reduction",
			shipBytes, mirrorBytes)
	}
}

// TestShipAutoCostModel pins the statistics model's decision: with a
// selective 8-key local binding the estimated result is well under the
// 50k-row relation and ShipAuto ships; with a binding covering all 64
// keys the estimate equals the full relation and ShipAuto mirrors.
func TestShipAutoCostModel(t *testing.T) {
	src := skewedSrc(t, 50000)
	_, addr := startServer(t, src)

	selective := skewedNet(t, skewedHome(t, 40, 8), dialT(t, addr))
	if paths := countPaths(t, selective, skewedRequest(pdms.ShipAuto)); paths["ship"] == 0 {
		t.Errorf("selective binding: ShipAuto did not ship (paths %v)", paths)
	}
	full := skewedNet(t, skewedHome(t, 0, 64), dialT(t, addr))
	if paths := countPaths(t, full, skewedRequest(pdms.ShipAuto)); paths["ship"] != 0 {
		t.Errorf("full-relation binding: ShipAuto shipped anyway (paths %v)", paths)
	}
}
