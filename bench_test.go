// Package repro holds the benchmark harness: one benchmark per
// experiment (E1–E10 in DESIGN.md) plus ablation benches for the design
// choices called out there. Run:
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"net"
	"testing"

	"repro/internal/advisor"
	"repro/internal/corpus"
	"repro/internal/cq"
	"repro/internal/experiments"
	"repro/internal/learn"
	"repro/internal/mangrove"
	"repro/internal/match"
	"repro/internal/pdms"
	"repro/internal/rdf"
	"repro/internal/relation"
	"repro/internal/strutil"
	"repro/internal/transport"
	"repro/internal/webgen"
	"repro/internal/workload"
)

// BenchmarkE1Matching regenerates the LSD accuracy table (paper §4.3.2).
func BenchmarkE1Matching(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		res := experiments.E1Matching(42, 3, 4)
		acc = res.MetaAccuracy["courses"]
	}
	b.ReportMetric(acc, "accuracy")
}

// e2Chain generates the deterministic E2 chain workload (seed 42) that
// the serving benchmarks and TestWarmPathAllocCeilings share.
func e2Chain(tb testing.TB, peers, rowsPerPeer int) *workload.GeneratedNetwork {
	tb.Helper()
	g, err := workload.GenNetwork(workload.NetworkSpec{
		Topology: workload.Chain, Peers: peers, Seed: 42, RowsPerPeer: rowsPerPeer})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// e2Served returns the upper half of a 16-peer chain: the peers the
// E2-remote fixture puts behind a transport.
func e2Served(g *workload.GeneratedNetwork) []*pdms.Peer {
	var served []*pdms.Peer
	for i := 8; i < 16; i++ {
		served = append(served, g.Net.Peer(workload.PeerName(i)))
	}
	return served
}

// e2RemoteCoordinator rebuilds g's 16-peer chain on a fresh coordinator
// that holds the lower eight peers itself and reaches e2Served(g)
// through tr.
func e2RemoteCoordinator(tb testing.TB, g *workload.GeneratedNetwork, tr pdms.Transport) *pdms.Network {
	tb.Helper()
	n := pdms.NewNetwork()
	for i := 0; i < 16; i++ {
		name := workload.PeerName(i)
		if i < 8 {
			if err := n.AddPeer(g.Net.Peer(name)); err != nil {
				tb.Fatal(err)
			}
			continue
		}
		if _, err := n.AddRemotePeer(context.Background(), name, tr); err != nil {
			tb.Fatal(err)
		}
	}
	for _, m := range g.Net.Mappings() {
		if err := n.AddMapping(m); err != nil {
			tb.Fatal(err)
		}
	}
	return n
}

// e2TCPTransport serves e2Served(g) from an in-process transport.Server
// on a loopback port and returns a client dialled to it; both close
// with the test.
func e2TCPTransport(tb testing.TB, g *workload.GeneratedNetwork) *transport.Client {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := transport.NewServer(e2Served(g)...)
	go srv.Serve(ln)
	tb.Cleanup(func() { srv.Close() })
	c, err := transport.Dial(ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

// skewedJoinPlans compiles the Zipf-skewed fact ⋈ dim join (seed 42, a
// few hot dictionary codes and a long tail) once, so its callers
// measure the batch kernel with reformulation and the network stack out
// of the loop.
func skewedJoinPlans(tb testing.TB) []*cq.Plan {
	tb.Helper()
	db, q, err := workload.SkewedJoin(workload.SkewedJoinSpec{Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := cq.Compile(db, q)
	if err != nil {
		tb.Fatal(err)
	}
	return []*cq.Plan{plan}
}

// BenchmarkE2Transitive measures transitive query answering at several
// network sizes (the Figure 2 property). A repeated query is the
// steady-state serving workload: after the first iteration the network
// caches the reformulation and its compiled plans, so this measures
// warm-path answering. BenchmarkE2TransitiveCold measures the same
// workload with caches dropped every iteration.
func BenchmarkE2Transitive(b *testing.B) {
	for _, peers := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			g := e2Chain(b, peers, 5)
			q := g.TitleQuery(0)
			b.ResetTimer()
			answers := 0
			for i := 0; i < b.N; i++ {
				res, err := g.Net.Answer(workload.PeerName(0), q,
					pdms.ReformOptions{MaxDepth: peers + 1})
				if err != nil {
					b.Fatal(err)
				}
				answers = res.Answers.Len()
			}
			b.ReportMetric(float64(answers), "answers")
		})
	}
}

// BenchmarkE2TransitiveCold measures full transitive query answering
// with every cache (reformulations, plans, global snapshot) dropped
// each iteration — reformulation plus compilation plus execution.
func BenchmarkE2TransitiveCold(b *testing.B) {
	for _, peers := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			g := e2Chain(b, peers, 5)
			q := g.TitleQuery(0)
			b.ResetTimer()
			answers := 0
			for i := 0; i < b.N; i++ {
				g.Net.InvalidateCaches()
				res, err := g.Net.Answer(workload.PeerName(0), q,
					pdms.ReformOptions{MaxDepth: peers + 1})
				if err != nil {
					b.Fatal(err)
				}
				answers = res.Answers.Len()
			}
			b.ReportMetric(float64(answers), "answers")
		})
	}
}

// BenchmarkSkewedJoin measures the engine-level Zipf-skewed fact ⋈ dim
// join on precompiled plans — the batch kernel's adversarial case (a
// few hot dictionary codes, a long tail) with reformulation and the
// network stack out of the loop. The branches=2 series is warm-join's
// union in process — the join over a 50 000-row fact relation beside
// the same join over an empty one. TestWarmPathAllocCeilings holds both
// series' allocation and answer counts.
func BenchmarkSkewedJoin(b *testing.B) {
	ctx := context.Background()
	run := func(plans []*cq.Plan) func(*testing.B) {
		return func(b *testing.B) {
			answers := 0
			for i := 0; i < b.N; i++ {
				res, err := cq.MaterializeUnion(ctx, plans, cq.ExecOptions{})
				if err != nil {
					b.Fatal(err)
				}
				answers = res.Len()
			}
			b.ReportMetric(float64(answers), "answers")
		}
	}
	b.Run("branches=1", run(skewedJoinPlans(b)))
	b.Run("branches=2", run(skewedUnionPlans(b)))
}

// skewedUnionPlans compiles warm-join's union in process: q(P, L) :-
// fact(K, P), dim(K, L) over the bench's 50 000-row fact relation (seed
// 42) and the same join over an empty local copy of fact.
func skewedUnionPlans(tb testing.TB) []*cq.Plan {
	tb.Helper()
	db, q, err := workload.SkewedJoin(workload.SkewedJoinSpec{FactRows: 50000, DimKeys: 64, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	db.Put(relation.New(relation.NewSchema("home", relation.Attr("key"), relation.Attr("payload"))))
	plans := make([]*cq.Plan, 0, 2)
	for _, branch := range []cq.Query{cq.MustParse("q(P, L) :- home(K, P), dim(K, L)"), q} {
		p, err := cq.Compile(db, branch)
		if err != nil {
			tb.Fatal(err)
		}
		plans = append(plans, p)
	}
	return plans
}

// BenchmarkE2Limit1 measures the limit push-down on a 64-peer chain:
// an existence query (Limit=1) aborts the union's join trees the moment
// the first distinct answer is yielded, versus materializing the full
// answer set through the same cursor path. Reformulation and plans are
// cached (warmed before the timer), so both sub-benches measure pure
// execution.
func BenchmarkE2Limit1(b *testing.B) {
	g := e2Chain(b, 64, 5)
	ctx := context.Background()
	req := pdms.Request{Peer: workload.PeerName(0), Query: g.TitleQuery(0),
		Reform: pdms.ReformOptions{MaxDepth: 65}}
	if _, err := g.Net.Answer(req.Peer, req.Query, req.Reform); err != nil {
		b.Fatal(err)
	}
	b.Run("limit=1", func(b *testing.B) {
		r := req
		r.Limit = 1
		for i := 0; i < b.N; i++ {
			cur, err := g.Net.Query(ctx, r)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for cur.Next() {
				n++
			}
			if err := cur.Close(); err != nil {
				b.Fatal(err)
			}
			if n != 1 {
				b.Fatalf("answers = %d, want 1", n)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		answers := 0
		for i := 0; i < b.N; i++ {
			cur, err := g.Net.Query(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			rel, err := cur.Materialize()
			if err != nil {
				b.Fatal(err)
			}
			answers = rel.Len()
		}
		b.ReportMetric(float64(answers), "answers")
	})
}

// BenchmarkWideUnion measures a wide union's execution on the 64-peer
// chain: one rewriting per reachable peer, 40 rows per peer, 2 560
// answers, every binding a distinct one. Reformulation and plans are
// warmed before the timer, so it measures pure union execution. On a
// 2-CPU Xeon host it takes ≈0.27 ms/op, 175 KB, 10 allocs.
func BenchmarkWideUnion(b *testing.B) {
	g := e2Chain(b, 64, 40)
	ctx := context.Background()
	req := pdms.Request{Peer: workload.PeerName(0), Query: g.TitleQuery(0),
		Reform: pdms.ReformOptions{MaxDepth: 65}}
	if _, err := g.Net.Answer(req.Peer, req.Query, req.Reform); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	answers := 0
	for i := 0; i < b.N; i++ {
		cur, err := g.Net.Query(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		rel, err := cur.Materialize()
		if err != nil {
			b.Fatal(err)
		}
		answers = rel.Len()
	}
	b.ReportMetric(float64(answers), "answers")
}

// BenchmarkE2Remote measures warm distributed serving on the 16-peer
// E2 chain with the upper half of the peers behind a transport:
// loopback (wire codecs, no sockets) and real TCP on localhost. A warm
// iteration pays the per-remote-peer statistics-fingerprint probe on
// top of the cached in-process path and moves no tuples — the delta
// against BenchmarkE2Transitive/peers=16 is the price of freshness
// checking, and the loopback/tcp gap is the price of sockets.
func BenchmarkE2Remote(b *testing.B) {
	for _, mode := range []string{"loopback", "tcp"} {
		b.Run(mode, func(b *testing.B) {
			g := e2Chain(b, 16, 5)
			var tr pdms.Transport = pdms.NewLoopback(e2Served(g)...)
			if mode == "tcp" {
				tr = e2TCPTransport(b, g)
			}
			n := e2RemoteCoordinator(b, g, tr)
			q := g.TitleQuery(0)
			opts := pdms.ReformOptions{MaxDepth: 17}
			if _, err := n.Answer(workload.PeerName(0), q, opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			answers := 0
			for i := 0; i < b.N; i++ {
				res, err := n.Answer(workload.PeerName(0), q, opts)
				if err != nil {
					b.Fatal(err)
				}
				answers = res.Answers.Len()
			}
			b.ReportMetric(float64(answers), "answers")
		})
	}
}

// BenchmarkColdSyncLoopback is the cold-sync shape in process: caches
// and replica marks dropped before every query, so each iteration
// re-reformulates, re-compiles and re-scans the upper half of the
// 200-rows-per-peer chain (eight relations, 1 600 rows) through the
// Loopback wire codecs, building every replica with one bulk load.
func BenchmarkColdSyncLoopback(b *testing.B) {
	g := e2Chain(b, 16, 200)
	lb := pdms.NewLoopback(e2Served(g)...)
	n := e2RemoteCoordinator(b, g, lb)
	req := pdms.Request{Peer: workload.PeerName(0), Query: g.TitleQuery(0),
		Reform: pdms.ReformOptions{MaxDepth: 17}}
	ctx := context.Background()
	answers := 0
	for i := 0; i < b.N; i++ {
		n.InvalidateCaches()
		cur, err := n.Query(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		res, err := cur.Materialize()
		if err != nil {
			b.Fatal(err)
		}
		answers = res.Len()
	}
	b.ReportMetric(float64(lb.Scans())/float64(b.N), "scans/op")
	b.ReportMetric(float64(answers), "answers")
}

// BenchmarkOpenDurablePeer measures a durable node's recovery in the
// rejoin shape: a 50 000-row fact relation in the snapshot plus 4 000
// one-row writes in the log, reopened (snapshot bulk-loaded, log
// replayed, nothing checkpointed) and closed every iteration.
func BenchmarkOpenDurablePeer(b *testing.B) {
	dir, schema := durablePeerDir(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reopenDurablePeer(b, dir, schema)
	}
}

// durablePeerRows and durablePeerLog are the rejoin shape's sizes: the
// rows the snapshot holds and the one-row writes logged after it.
const (
	durablePeerRows = 50000
	durablePeerLog  = 4000
)

// durablePeerDir builds the rejoin shape on disk: a durable peer's
// directory holding a checkpointed snapshot of the skewed join's
// 50 000-row fact relation and a log of 4 000 one-row writes after it.
func durablePeerDir(tb testing.TB) (string, relation.Schema) {
	tb.Helper()
	db, _, err := workload.SkewedJoin(workload.SkewedJoinSpec{FactRows: durablePeerRows, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	fact := db.Get("fact")
	dir := tb.TempDir()
	p, err := pdms.OpenDurablePeer("src", dir, fact.Schema)
	if err != nil {
		tb.Fatal(err)
	}
	for _, row := range fact.Rows() {
		if err := p.Insert("fact", row); err != nil {
			tb.Fatal(err)
		}
	}
	if err := p.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	for k := 0; k < durablePeerLog; k++ {
		row := relation.Tuple{relation.SV(fmt.Sprintf("k%d", k%64)), relation.SV(fmt.Sprintf("pushed%d", k))}
		if err := p.Insert("fact", row); err != nil {
			tb.Fatal(err)
		}
	}
	if err := p.ClosePersist(); err != nil {
		tb.Fatal(err)
	}
	return dir, fact.Schema
}

// reopenDurablePeer recovers the peer in dir — snapshot loaded, log
// replayed, nothing checkpointed — checks it replayed the whole log, and
// closes it again.
func reopenDurablePeer(tb testing.TB, dir string, schema relation.Schema) {
	p, err := pdms.OpenDurablePeer("src", dir, schema)
	if err != nil {
		tb.Fatal(err)
	}
	if got := p.Persist().Recovered().Replayed; got != durablePeerLog {
		tb.Fatalf("replayed %d records, want %d", got, durablePeerLog)
	}
	if got := p.Store.Get("fact").Len(); got != durablePeerRows+durablePeerLog {
		tb.Fatalf("recovered %d rows, want %d", got, durablePeerRows+durablePeerLog)
	}
	if err := p.ClosePersist(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkQueryConcurrentClients measures warm-cache serving
// throughput under concurrent clients: every goroutine issues the same
// already-cached request against one Network and drains the cursor —
// the singleflight + shared-plan path that a hot serving peer runs.
func BenchmarkQueryConcurrentClients(b *testing.B) {
	g := e2Chain(b, 16, 5)
	ctx := context.Background()
	req := pdms.Request{Peer: workload.PeerName(0), Query: g.TitleQuery(0),
		Reform: pdms.ReformOptions{MaxDepth: 17}}
	if _, err := g.Net.Answer(req.Peer, req.Query, req.Reform); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	// b.Fatal must not run on RunParallel worker goroutines; report and
	// bail out of the worker instead.
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			cur, err := g.Net.Query(ctx, req)
			if err != nil {
				b.Error(err)
				return
			}
			n := 0
			for cur.Next() {
				n++
			}
			if err := cur.Close(); err != nil {
				b.Error(err)
				return
			}
			if n == 0 {
				b.Error("no answers")
				return
			}
		}
	})
}

// BenchmarkE3MappingEffort regenerates the PDMS-vs-mediated table.
func BenchmarkE3MappingEffort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E3MappingEffort(42, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4Reformulation compares reformulation with the pruning
// heuristics on and off (the §3.1.1 ablation).
func BenchmarkE4Reformulation(b *testing.B) {
	g := e2Chain(b, 8, 2)
	q := g.TitleQuery(0)
	for _, cfg := range []struct {
		name string
		opts pdms.ReformOptions
	}{
		{"pruned", pdms.ReformOptions{MaxDepth: 9}},
		{"unpruned", pdms.ReformOptions{MaxDepth: 9, NoVisitedPruning: true, NoContainmentPruning: true, MaxRewritings: 4096}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var kept int
			for i := 0; i < b.N; i++ {
				rf := pdms.NewReformulator(g.Net, cfg.opts)
				rws, _, err := rf.Reformulate(context.Background(), workload.PeerName(0), q)
				if err != nil {
					b.Fatal(err)
				}
				kept = len(rws)
			}
			b.ReportMetric(float64(kept), "rewritings")
		})
	}
}

// BenchmarkReformulateTopologies reformulates the title query at every
// peer of 8-peer E2 graphs at depth 3, one op per sweep of the eight
// peers, and reports the expansion states the search visits per op.
func BenchmarkReformulateTopologies(b *testing.B) {
	for _, topo := range []workload.Topology{workload.Chain, workload.Star, workload.Tree, workload.Random} {
		b.Run(string(topo), func(b *testing.B) {
			g, err := workload.GenNetwork(workload.NetworkSpec{
				Topology: topo, Peers: 8, Seed: 42, RowsPerPeer: 5, ExtraEdgeProb: 0.15})
			if err != nil {
				b.Fatal(err)
			}
			states := 0
			for i := 0; i < b.N; i++ {
				for p := 0; p < 8; p++ {
					rf := pdms.NewReformulator(g.Net, pdms.ReformOptions{MaxDepth: 3})
					_, stats, err := rf.Reformulate(context.Background(), workload.PeerName(p), g.TitleQuery(p))
					if err != nil {
						b.Fatal(err)
					}
					states += stats.Explored
				}
			}
			b.ReportMetric(float64(states)/float64(b.N), "states/op")
		})
	}
}

// BenchmarkE5Publish regenerates the instant-vs-crawl latency table.
func BenchmarkE5Publish(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E5Publish(42, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6Advisor regenerates the DesignAdvisor quality table.
func BenchmarkE6Advisor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E6Advisor(42, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7Integrity regenerates the cleaning-policy table.
func BenchmarkE7Integrity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E7Integrity(42, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8Updategrams regenerates the incremental-vs-recompute table.
func BenchmarkE8Updategrams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E8Updategrams(42, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Templates regenerates the XML-template table.
func BenchmarkE9Templates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E9Templates(42, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10Stats regenerates the corpus-statistics table.
func BenchmarkE10Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E10Stats(42, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRDFIndexes ablates the triple-store index choice: probing by
// predicate with all three indexes vs a subject-only store forcing scans.
func BenchmarkRDFIndexes(b *testing.B) {
	build := func() *rdf.Store {
		s := rdf.NewStore()
		for i := 0; i < 2000; i++ {
			s.Add(rdf.Triple{
				S:      fmt.Sprintf("subj%d", i%500),
				P:      fmt.Sprintf("pred%d", i%20),
				O:      fmt.Sprintf("obj%d", i%100),
				Source: "bench",
			})
		}
		return s
	}
	s := build()
	b.Run("indexed-PO", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := s.Match("", "pred7", "obj7"); len(got) == 0 {
				b.Fatal("no matches")
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, t := range s.Match("", "", "") {
				if t.P == "pred7" && t.O == "obj7" {
					n++
				}
			}
			if n == 0 {
				b.Fatal("no matches")
			}
		}
	})
}

// BenchmarkMetaVsVote ablates the meta-learner's reliability weighting
// against the unweighted vote.
func BenchmarkMetaVsVote(b *testing.B) {
	d, _ := workload.DomainByName("courses")
	opts := workload.SourceOptions{Rows: 25, DropRate: 0.1, ObfuscateRate: 0.35}
	var train, test []learn.Example
	for i := 0; i < 3; i++ {
		train = append(train, workload.GenSource(d, i, 42, opts).Columns()...)
	}
	for i := 3; i < 7; i++ {
		test = append(test, workload.GenSource(d, i, 42, opts).Columns()...)
	}
	syn := strutil.DefaultSynonyms()
	b.Run("meta", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			lsd := match.NewLSD(syn)
			lsd.Train(train)
			acc = learn.Evaluate(lsd.Meta, test)
		}
		b.ReportMetric(acc, "accuracy")
	})
	b.Run("vote", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			v := &learn.VoteLearner{Base: []learn.Learner{
				&learn.NameLearner{Synonyms: syn}, &learn.BayesLearner{},
				&learn.FormatLearner{}, &learn.ContextLearner{Synonyms: syn}}}
			v.Train(train)
			acc = learn.Evaluate(v, test)
		}
		b.ReportMetric(acc, "accuracy")
	})
}

// BenchmarkAdvisorAlphaBeta sweeps the DESIGNADVISOR weighting.
func BenchmarkAdvisorAlphaBeta(b *testing.B) {
	c := corpus.New(strutil.DefaultSynonyms())
	for _, d := range workload.Domains() {
		for i := 0; i < 4; i++ {
			src := workload.GenSource(d, i, 42, workload.SourceOptions{Rows: 5})
			c.Add(&corpus.Entry{Name: fmt.Sprintf("%s_%d", d.Name, i),
				Relations: []relation.Schema{src.Schema}})
		}
	}
	c.Build()
	partial := relation.NewSchema("x",
		relation.Attr("title"), relation.Attr("teacher"), relation.Attr("seats"))
	for _, w := range []struct{ a, bw float64 }{{1, 0.001}, {0.7, 0.3}, {0.001, 1}} {
		b.Run(fmt.Sprintf("alpha=%.1f", w.a), func(b *testing.B) {
			adv := advisorWith(c, w.a, w.bw)
			for i := 0; i < b.N; i++ {
				if got := adv.Propose(partial, 3); len(got) == 0 {
					b.Fatal("no proposals")
				}
			}
		})
	}
}

func advisorWith(c *corpus.Corpus, alpha, beta float64) *advisor.DesignAdvisor {
	return &advisor.DesignAdvisor{Corpus: c, Alpha: alpha, Beta: beta}
}

// BenchmarkViewPlacement measures query cost with and without the
// §3.1.2 data-placement optimizer (answers via local copies).
func BenchmarkViewPlacement(b *testing.B) {
	mk := func(place bool) (*workload.GeneratedNetwork, cq.Query) {
		g, err := workload.GenNetwork(workload.NetworkSpec{
			Topology: workload.Star, Peers: 5, Seed: 42, RowsPerPeer: 20})
		if err != nil {
			b.Fatal(err)
		}
		q := g.TitleQuery(1)
		if place {
			wl := []pdms.WorkloadQuery{{Peer: workload.PeerName(1), Query: q, Freq: 10}}
			if _, err := g.Net.PlaceViews(wl, 4, pdms.CostModel{}); err != nil {
				b.Fatal(err)
			}
		}
		return g, q
	}
	b.Run("remote", func(b *testing.B) {
		g, q := mk(false)
		var cost float64
		for i := 0; i < b.N; i++ {
			c, err := g.Net.EstimateCost(workload.PeerName(1), q, pdms.CostModel{})
			if err != nil {
				b.Fatal(err)
			}
			cost = c
		}
		b.ReportMetric(cost, "est_cost")
	})
	b.Run("placed", func(b *testing.B) {
		g, q := mk(true)
		var cost float64
		for i := 0; i < b.N; i++ {
			c, err := g.Net.EstimateCost(workload.PeerName(1), q, pdms.CostModel{})
			if err != nil {
				b.Fatal(err)
			}
			cost = c
		}
		b.ReportMetric(cost, "est_cost")
	})
}

// BenchmarkCQEval measures the conjunctive-query evaluator's join
// throughput at growing relation sizes.
func BenchmarkCQEval(b *testing.B) {
	for _, rows := range []int{100, 1000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			db := relation.NewDatabase()
			course := relation.New(relation.NewSchema("course",
				relation.Attr("title"), relation.Attr("instr")))
			person := relation.New(relation.NewSchema("person",
				relation.Attr("name"), relation.Attr("dept")))
			for i := 0; i < rows; i++ {
				course.MustInsert(relation.SV(fmt.Sprintf("c%d", i)),
					relation.SV(fmt.Sprintf("p%d", i%50)))
			}
			for i := 0; i < 50; i++ {
				person.MustInsert(relation.SV(fmt.Sprintf("p%d", i)),
					relation.SV("cs"))
			}
			db.Put(course)
			db.Put(person)
			q := cq.MustParse("q(T, I) :- course(T, I), person(I, D)")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := cq.Eval(db, q)
				if err != nil {
					b.Fatal(err)
				}
				if r.Len() == 0 {
					b.Fatal("no answers")
				}
			}
		})
	}
}

// cqBenchDB builds the two-relation join workload shared by the
// compiled-vs-reference evaluator benchmarks.
func cqBenchDB(rows int) (*relation.Database, cq.Query) {
	db := relation.NewDatabase()
	course := relation.New(relation.NewSchema("course",
		relation.Attr("title"), relation.Attr("instr")))
	person := relation.New(relation.NewSchema("person",
		relation.Attr("name"), relation.Attr("dept")))
	for i := 0; i < rows; i++ {
		course.MustInsert(relation.SV(fmt.Sprintf("c%d", i)),
			relation.SV(fmt.Sprintf("p%d", i%50)))
	}
	for i := 0; i < 50; i++ {
		person.MustInsert(relation.SV(fmt.Sprintf("p%d", i)),
			relation.SV("cs"))
	}
	db.Put(course)
	db.Put(person)
	return db, cq.MustParse("q(T, I) :- course(T, I), person(I, D)")
}

// BenchmarkEvalCompiled measures the slot-based compiled engine on the
// two-atom join at growing sizes (compare with BenchmarkEvalReference).
func BenchmarkEvalCompiled(b *testing.B) {
	for _, rows := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			db, q := cqBenchDB(rows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := cq.Eval(db, q)
				if err != nil {
					b.Fatal(err)
				}
				if r.Len() == 0 {
					b.Fatal("no answers")
				}
			}
		})
	}
}

// BenchmarkEvalReference measures the legacy map-bindings interpreter on
// the identical workload, for before/after comparison.
func BenchmarkEvalReference(b *testing.B) {
	for _, rows := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			db, q := cqBenchDB(rows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := cq.EvalReference(db, q)
				if err != nil {
					b.Fatal(err)
				}
				if r.Len() == 0 {
					b.Fatal("no answers")
				}
			}
		})
	}
}

// BenchmarkSkewedJoinPlanner measures the cost-based planner on the
// workload the greedy orderer gets wrong: q(Y, Z) :- big(X, Y),
// small(X, Z) with a 50000-row big relation and a 10-row small one.
// The greedy order ties on bound/free variables and falls back to body
// order, scanning all of big and probing small per row; the cost-based
// order drives from small and answers with 10 index probes into big.
func BenchmarkSkewedJoinPlanner(b *testing.B) {
	const bigRows = 50000
	db := relation.NewDatabase()
	big := relation.New(relation.NewSchema("big",
		relation.Attr("x"), relation.Attr("y")))
	small := relation.New(relation.NewSchema("small",
		relation.Attr("x"), relation.Attr("z")))
	for i := 0; i < bigRows; i++ {
		big.MustInsert(relation.SV(fmt.Sprintf("k%d", i)),
			relation.SV(fmt.Sprintf("y%d", i%100)))
	}
	for i := 0; i < 10; i++ {
		small.MustInsert(relation.SV(fmt.Sprintf("k%d", i*(bigRows/10))),
			relation.SV(fmt.Sprintf("z%d", i)))
	}
	db.Put(big)
	db.Put(small)
	q := cq.MustParse("q(Y, Z) :- big(X, Y), small(X, Z)")
	for _, cfg := range []struct {
		name string
		opts cq.CompileOptions
	}{
		{"greedy", cq.CompileOptions{ForceGreedy: true}},
		{"cost-based", cq.CompileOptions{}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			plan, err := cq.CompileOpts(db, q, cfg.opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := plan.Exec()
				if err != nil {
					b.Fatal(err)
				}
				if r.Len() != 10 {
					b.Fatalf("answers = %d, want 10", r.Len())
				}
			}
		})
	}
}

// BenchmarkPublish measures the MANGROVE publish pipeline end to end
// (parse → extract → replace → index).
func BenchmarkPublish(b *testing.B) {
	g := webgen.Generate(webgen.Options{Seed: 42, NPeople: 3, NCourses: 3})
	if err := webgen.AnnotateAll(g); err != nil {
		b.Fatal(err)
	}
	repo := mangrove.NewRepository(mangrove.DepartmentSchema())
	urls := g.Site.URLs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		url := urls[i%len(urls)]
		if _, err := repo.Publish(url, g.Site.Get(url)); err != nil {
			b.Fatal(err)
		}
	}
}
