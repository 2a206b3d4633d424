package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/faults"
	"repro/internal/glav"
	"repro/internal/pdms"
	"repro/internal/relation"
	"repro/internal/workload"
)

// countingListener counts the connections a test's own listener
// accepted. An exchange on a pooled connection leaves the count where
// it was and a fresh dial moves it by one, so "pooled / not pooled" and
// "re-dialled once" are asserted without a clock. A successful dial has
// completed the handshake, so its accept is already counted when the
// client call returns.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// listenCounting opens a counting listener on addr.
func listenCounting(t *testing.T, addr string) *countingListener {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listening on %s: %v", addr, err)
	}
	return &countingListener{Listener: ln}
}

// startCountingServer boots a TCP server for the given peers on an
// ephemeral port, returning the client address and the listener's
// accept counter.
func startCountingServer(t *testing.T, peers ...*pdms.Peer) (*Server, string, *countingListener) {
	t.Helper()
	ln := listenCounting(t, "127.0.0.1:0")
	srv := NewServer(peers...)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String(), ln
}

// startServer is startCountingServer for tests that count nothing.
func startServer(t *testing.T, peers ...*pdms.Peer) (*Server, string) {
	t.Helper()
	srv, addr, _ := startCountingServer(t, peers...)
	return srv, addr
}

// idleConns reports how many connections sit in the client's pool.
func idleConns(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idle)
}

// dialT dials with test cleanup.
func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// genPeers returns the generated network's peers in index order.
func genPeers(g *workload.GeneratedNetwork) []*pdms.Peer {
	out := make([]*pdms.Peer, 0, len(g.Specs))
	for i := range g.Specs {
		out = append(out, g.Net.Peer(workload.PeerName(i)))
	}
	return out
}

// coordinator builds a network where peers with index < localUpTo are
// local and the rest are remote through tr. Mappings are the generated
// ones, re-registered against the mixed network.
func coordinator(t *testing.T, g *workload.GeneratedNetwork, localUpTo int, tr pdms.Transport) *pdms.Network {
	t.Helper()
	n := pdms.NewNetwork()
	peers := genPeers(g)
	for i, p := range peers {
		if i < localUpTo {
			if err := n.AddPeer(p); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := n.AddRemotePeer(context.Background(), p.Name, tr); err != nil {
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

// answerDigest drains a query into its canonical wire form: the sorted,
// deduplicated answer tuples encoded as one tuple batch. Byte equality
// of digests is exactly "identical answer sets".
func answerDigest(t *testing.T, n *pdms.Network, req pdms.Request) []byte {
	t.Helper()
	cur, err := n.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := cur.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return relation.EncodeTupleBatch(rel.SortRows().Rows())
}

// titleRequest is the E2 workload's query at peer 0, reformulated to
// full depth.
func titleRequest(g *workload.GeneratedNetwork) pdms.Request {
	return pdms.Request{
		Peer:   workload.PeerName(0),
		Query:  g.TitleQuery(0),
		Reform: pdms.ReformOptions{MaxDepth: len(g.Specs) + 1},
	}
}

// TestDifferentialUnionWorkloads runs randomized PR 3/PR 4-style union
// workloads — several topologies, seeds, and a limit — over three executions of the same network: all-in-process, half the
// peers behind a loopback transport, and half the peers behind a real
// TCP server. All three must produce byte-identical answer sets.
func TestDifferentialUnionWorkloads(t *testing.T) {
	for _, topo := range []workload.Topology{workload.Chain, workload.Star, workload.Random} {
		for seed := int64(1); seed <= 3; seed++ {
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
				gA, gB, gC := gen(), gen(), gen()
				half := spec.Peers / 2

				loopNet := coordinator(t, gB, half, pdms.NewLoopback(genPeers(gB)[half:]...))
				_, addr := startServer(t, genPeers(gC)[half:]...)
				tcpNet := coordinator(t, gC, half, dialT(t, addr))

				want := answerDigest(t, gA.Net, titleRequest(gA))
				if got := answerDigest(t, loopNet, titleRequest(gB)); !bytes.Equal(got, want) {
					t.Error("loopback answers differ from in-process")
				}
				if got := answerDigest(t, tcpNet, titleRequest(gC)); !bytes.Equal(got, want) {
					t.Error("TCP answers differ from in-process")
				}
				// Limit exactness holds over the wire too.
				req := titleRequest(gC)
				req.Limit = 3
				cur, err := tcpNet.Query(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				rel, err := cur.Materialize()
				if err != nil {
					t.Fatal(err)
				}
				if rel.Len() != 3 {
					t.Errorf("limited remote query returned %d answers, want 3", rel.Len())
				}
			})
		}
	}
}

// TestE2ChainDifferential16 is the acceptance anchor: the 16-peer E2
// transitive-closure chain produces byte-identical answer sets run (a)
// in process, (b) over loopback transport, and (c) over real TCP. (The
// three-OS-process variant of (c) lives in the repo-root process test.)
func TestE2ChainDifferential16(t *testing.T) {
	spec := workload.NetworkSpec{Topology: workload.Chain, Peers: 16, Seed: 1, RowsPerPeer: 10}
	gen := func() *workload.GeneratedNetwork {
		g, err := workload.GenNetwork(spec)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	gA, gB, gC := gen(), gen(), gen()

	loopNet := coordinator(t, gB, 8, pdms.NewLoopback(genPeers(gB)[8:]...))
	_, addr := startServer(t, genPeers(gC)[8:]...)
	tcpNet := coordinator(t, gC, 8, dialT(t, addr))

	inproc := answerDigest(t, gA.Net, titleRequest(gA))
	loop := answerDigest(t, loopNet, titleRequest(gB))
	tcp := answerDigest(t, tcpNet, titleRequest(gC))
	if len(inproc) == 0 {
		t.Fatal("empty in-process answer digest")
	}
	if !bytes.Equal(inproc, loop) {
		t.Error("loopback answer set differs from in-process")
	}
	if !bytes.Equal(inproc, tcp) {
		t.Error("TCP answer set differs from in-process")
	}
}

// mustMapping maps the served peer's course relation into the local
// peer's class vocabulary.
func mustMapping(t *testing.T) *glav.Mapping {
	t.Helper()
	return glav.MustNew("served2local", "served", cq.MustParse("m(T, S) :- course(T, S)"),
		"local", cq.MustParse("m(T, S) :- class(T, S)"))
}

// servedPeer builds the standalone "remote node" peer with n course rows.
func servedPeer(t *testing.T, rows int) *pdms.Peer {
	t.Helper()
	p := pdms.NewPeer("served", relation.NewSchema("course", relation.Attr("title"), relation.IntAttr("size")))
	for i := 0; i < rows; i++ {
		if err := p.Insert("course", relation.Tuple{relation.SV(fmt.Sprintf("c%05d", i)), relation.IV(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestScanCancelMidStreamTCP cancels the context from the deliver
// callback after the first batch: the client must surface ctx's error
// and the poisoned connection must not corrupt later requests.
func TestScanCancelMidStreamTCP(t *testing.T) {
	p := servedPeer(t, 500)
	srv, addr := startServer(t, p)
	srv.BatchSize = 64
	c := dialT(t, addr)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	batches := 0
	err := c.Scan(ctx, "served", "course", func(batch []relation.Tuple) error {
		batches++
		if batches == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stream cancel: err = %v, want context.Canceled", err)
	}
	// The client still works: the poisoned connection was discarded.
	got := 0
	if err := c.Scan(context.Background(), "served", "course", func(batch []relation.Tuple) error {
		got += len(batch)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 500 {
		t.Fatalf("post-cancel scan saw %d rows, want 500", got)
	}
}

// dropProxy forwards connections to target but cuts each after
// relaying limit response bytes — a deterministic mid-stream connection
// drop regardless of socket buffering (faults.Proxy generalizes the
// byte-limited proxy this file used to hand-roll).
func dropProxy(t *testing.T, target string, limit int64) string {
	t.Helper()
	proxy, err := faults.NewProxy(target, faults.ProxyConfig{ResponseLimit: limit})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	return proxy.Addr()
}

// TestConnectionDropMidScan drops the connection after a handful of
// response bytes — the server crashing mid-TupleBatch stream: the scan
// fails with a typed transport error rather than returning a silent
// partial answer, and the poisoned connection is never pooled (the next
// request dials exactly one fresh one).
func TestConnectionDropMidScan(t *testing.T) {
	p := servedPeer(t, 500)
	srv, addr, ln := startCountingServer(t, p)
	srv.BatchSize = 64
	// Enough for the handshake, the request's schema frame, and about
	// one batch — then the wire goes dead.
	c := dialT(t, dropProxy(t, addr, 1500))
	rows := 0
	err := c.Scan(context.Background(), "served", "course", func(batch []relation.Tuple) error {
		rows += len(batch)
		return nil
	})
	if err == nil {
		t.Fatal("scan over a dropped connection reported success")
	}
	if !errors.Is(err, pdms.ErrPeerUnreachable) {
		t.Fatalf("mid-batch drop: err = %v, want ErrPeerUnreachable class", err)
	}
	if rows >= 500 {
		t.Fatalf("saw all %d rows despite the drop", rows)
	}
	// The cut connection must not be pooled: the next State request
	// dials fresh (its response fits well under the proxy's byte limit).
	if n := idleConns(c); n != 0 {
		t.Fatalf("%d connections pooled after the drop, want 0", n)
	}
	st, err := c.State(context.Background(), "served")
	if err != nil {
		t.Fatalf("request after mid-batch drop failed: %v", err)
	}
	if got := ln.accepts.Load(); got != 2 {
		t.Fatalf("%d connections, want 2: the dropped one and one fresh dial", got)
	}
	if len(st.Relations) != 1 || st.Relations[0].Stats.Rows != 500 {
		t.Fatalf("state after drop: %+v", st)
	}
}

// TestServerCrashMidHandshake covers a server dying during the hello
// exchange, in both shapes: the wire cut after a few response bytes
// (partial hello frame) and a server that accepts but never answers.
// The client must surface a typed error within the handshake bound —
// never hang — and, having no handshaken connection, pool nothing.
func TestServerCrashMidHandshake(t *testing.T) {
	_, addr := startServer(t, servedPeer(t, 5))
	t.Run("cut", func(t *testing.T) {
		// Three bytes of hello response, then the wire dies mid-frame.
		c := &Client{addr: dropProxy(t, addr, 3)}
		start := time.Now()
		_, err := c.State(context.Background(), "served")
		if err == nil {
			t.Fatal("handshake against a cut wire succeeded")
		}
		if !errors.Is(err, pdms.ErrPeerUnreachable) {
			t.Fatalf("cut handshake: err = %v, want ErrPeerUnreachable class", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("cut handshake took %s; must fail fast", elapsed)
		}
	})
	t.Run("mute", func(t *testing.T) {
		proxy, err := faults.NewProxy(addr, faults.ProxyConfig{Mute: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { proxy.Close() })
		c := &Client{addr: proxy.Addr()}
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		start := time.Now()
		if _, err := c.State(ctx, "served"); err == nil {
			t.Fatal("handshake against a mute server succeeded")
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("mute handshake ignored its deadline for %s", elapsed)
		}
	})
}

// TestPeerDropAndRejoin exercises the coordinator-level failure path: a
// dead remote peer fails queries fast (fetch and fingerprint sync need
// it), and the paper's join-or-leave-at-will recovery — remove the dead
// peer, re-add it through a fresh transport — restores service.
func TestPeerDropAndRejoin(t *testing.T) {
	p := servedPeer(t, 40)
	srv, addr := startServer(t, p)
	tr := dialT(t, addr)
	n := pdms.NewNetwork()
	local := pdms.NewPeer("local", relation.NewSchema("class", relation.Attr("t"), relation.IntAttr("s")))
	if err := n.AddPeer(local); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddRemotePeer(context.Background(), "served", tr); err != nil {
		t.Fatal(err)
	}
	addMapping := func() {
		t.Helper()
		m := mustMapping(t)
		if err := n.AddMapping(m); err != nil {
			t.Fatal(err)
		}
	}
	addMapping()
	q := cq.MustParse("q(T) :- class(T, S)")
	res, err := n.Answer("local", q, pdms.ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 40 {
		t.Fatalf("answers = %d, want 40", res.Answers.Len())
	}
	// The remote node dies: queries fail fast instead of serving stale
	// replicas as fresh.
	srv.Close()
	tr.Close()
	if _, err := n.Answer("local", q, pdms.ReformOptions{}); err == nil {
		t.Fatal("query against a dead remote peer succeeded")
	}
	// Rejoin through a fresh server and transport.
	if err := n.RemovePeer("served"); err != nil {
		t.Fatal(err)
	}
	_, addr2 := startServer(t, p)
	if _, err := n.AddRemotePeer(context.Background(), "served", dialT(t, addr2)); err != nil {
		t.Fatal(err)
	}
	addMapping() // RemovePeer dropped the mapping with the peer
	res, err = n.Answer("local", q, pdms.ReformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 40 {
		t.Fatalf("answers after rejoin = %d, want 40", res.Answers.Len())
	}
}

// TestRequestLevelErrors asserts typed wire errors for unknown names,
// and that the connection survives them (the next request reuses it).
func TestRequestLevelErrors(t *testing.T) {
	p := servedPeer(t, 3)
	_, addr := startServer(t, p)
	c := dialT(t, addr)
	var we *relation.WireError
	if _, err := c.State(context.Background(), "ghost"); !errors.As(err, &we) || we.Code != relation.ErrCodeUnknownPeer {
		t.Fatalf("unknown peer: err = %v, want wire error %d", err, relation.ErrCodeUnknownPeer)
	}
	if err := c.Scan(context.Background(), "served", "ghost", func([]relation.Tuple) error { return nil }); !errors.As(err, &we) || we.Code != relation.ErrCodeUnknownRelation {
		t.Fatalf("unknown relation: err = %v, want wire error %d", err, relation.ErrCodeUnknownRelation)
	}
	st, err := c.State(context.Background(), "served")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Relations) != 1 || st.Relations[0].Name != "course" || st.Relations[0].Stats.Rows != 3 {
		t.Fatalf("state after errors: %+v", st)
	}
}

// TestVersionMismatchHandshake hand-rolls a hello frame claiming a
// future protocol version; the server must answer with a typed version
// error.
func TestVersionMismatchHandshake(t *testing.T) {
	_, addr := startServer(t, servedPeer(t, 1))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bad := append([]byte("RVRP"), 0x63) // version 99
	if err := relation.WriteFrame(conn, relation.FrameHello, bad); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := relation.ReadFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != relation.FrameError {
		t.Fatalf("frame type %d, want error frame", typ)
	}
	we, err := relation.DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if we.Code != relation.ErrCodeVersion {
		t.Fatalf("error code %d, want %d", we.Code, relation.ErrCodeVersion)
	}
}

// TestClientLoopbackEquivalence runs the same State/Schemas/Scan
// conversation through the TCP client and the loopback transport; the
// results must match field for field.
func TestClientLoopbackEquivalence(t *testing.T) {
	p := servedPeer(t, 300)
	_, addr := startServer(t, p)
	c := dialT(t, addr)
	lb := pdms.NewLoopback(p)
	ctx := context.Background()

	stTCP, err := c.State(ctx, "served")
	if err != nil {
		t.Fatal(err)
	}
	stLB, err := lb.State(ctx, "served")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", stTCP) != fmt.Sprintf("%+v", stLB) {
		t.Fatalf("state differs:\ntcp %+v\nloopback %+v", stTCP, stLB)
	}
	schTCP, err := c.Schemas(ctx, "served")
	if err != nil {
		t.Fatal(err)
	}
	schLB, err := lb.Schemas(ctx, "served")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%v", schTCP) != fmt.Sprintf("%v", schLB) {
		t.Fatalf("schemas differ: tcp %v loopback %v", schTCP, schLB)
	}
	collect := func(tr pdms.Transport) []relation.Tuple {
		var out []relation.Tuple
		if err := tr.Scan(ctx, "served", "course", func(b []relation.Tuple) error {
			out = append(out, b...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if want, got := collect(lb), collect(c); !bytes.Equal(relation.EncodeTupleBatch(want), relation.EncodeTupleBatch(got)) {
		t.Fatal("scan rows differ between TCP and loopback")
	}
}

// TestStalePooledConnRetries kills the server between two requests and
// boots a fresh one on the same address: the client's pooled connection
// is dead, which says nothing about the peer, so the client must drop
// its pool and re-dial exactly once — transparently, immediately —
// instead of failing the request.
func TestStalePooledConnRetries(t *testing.T) {
	p := servedPeer(t, 20)
	ln := listenCounting(t, "127.0.0.1:0")
	addr := ln.Addr().String()
	srv1 := NewServer(p)
	go srv1.Serve(ln)
	c := dialT(t, addr)
	// Grow the pool to several connections (concurrent requests each
	// dial their own): after the restart every one of them is dead, and
	// the re-dial must not burn itself popping a second corpse.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.State(context.Background(), "served"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// The server restarts; the pooled connections die with it.
	if idleConns(c) < 2 {
		t.Fatalf("pool holds %d connections, want several corpses-to-be", idleConns(c))
	}
	srv1.Close()
	ln2 := listenCounting(t, addr)
	srv2 := NewServer(p)
	go srv2.Serve(ln2)
	t.Cleanup(func() { srv2.Close() })
	st, err := c.State(context.Background(), "served")
	if err != nil {
		t.Fatalf("request after server restart failed despite the re-dial: %v", err)
	}
	if len(st.Relations) != 1 || st.Relations[0].Stats.Rows != 20 {
		t.Fatalf("retried state: %+v", st)
	}
	if got := ln2.accepts.Load(); got != 1 {
		t.Fatalf("restarted server accepted %d connections, want exactly the one re-dial", got)
	}
	if n := idleConns(c); n != 1 {
		t.Fatalf("%d connections pooled after the re-dial, want 1 (the corpses dropped)", n)
	}
}

// TestFreshConnFailureIsNotRedialled is the other half of the re-dial
// rule: a server that handshakes, takes the request and hangs up
// without a byte has answered on a *fresh* connection, which is a fact
// about the peer. The client returns it typed, after exactly one
// connection; trying again is Request.Retry's decision.
func TestFreshConnFailureIsNotRedialled(t *testing.T) {
	ln := listenCounting(t, "127.0.0.1:0")
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, _, err := relation.ReadFrame(conn, nil); err != nil {
					return
				}
				if err := relation.WriteFrame(conn, relation.FrameHello, relation.EncodeHello()); err != nil {
					return
				}
				relation.ReadFrame(conn, nil) // the request; hang up on it
			}()
		}
	}()
	c := &Client{addr: ln.Addr().String()}
	_, err := c.State(context.Background(), "served")
	if !errors.Is(err, pdms.ErrPeerUnreachable) {
		t.Fatalf("hang-up on a fresh connection: err = %v, want ErrPeerUnreachable class", err)
	}
	if got := ln.accepts.Load(); got != 1 {
		t.Fatalf("%d connections, want exactly 1: a fresh connection's failure is not re-dialled", got)
	}
}

// TestSubscribeAfterClose pins that a closed client opens nothing: a
// push manager still resubscribing after Close would otherwise dial
// sockets nobody will ever close.
func TestSubscribeAfterClose(t *testing.T) {
	served := servedPeer(t, 3)
	srv, addr, ln := startCountingServer(t, served)
	srv.Push = true
	c := dialT(t, addr)
	c.Close()
	dialled := ln.accepts.Load()
	err := c.Subscribe(context.Background(), "served", nil,
		func(pdms.PeerState) error { t.Error("ack after Close"); return nil },
		func([]relation.ChangeRecord) error { t.Error("delta after Close"); return nil })
	if !errors.Is(err, errClientClosed) {
		t.Fatalf("Subscribe after Close: err = %v, want errClientClosed", err)
	}
	if got := ln.accepts.Load(); got != dialled {
		t.Fatalf("Subscribe after Close opened %d new connections", got-dialled)
	}
}

// TestDialHonorsHandshakeCancellation dials a listener that accepts
// but never answers the hello: the caller's context must be able to
// abort the handshake.
func TestDialHonorsHandshakeCancellation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			defer c.Close()
			io.Copy(io.Discard, c) // read the hello, never answer
		}
	}()
	c := &Client{addr: ln.Addr().String()}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.dial(ctx); err == nil {
		t.Fatal("handshake against a mute server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("handshake ignored ctx cancellation for %s", elapsed)
	}
}

// TestReadSideConcurrentWithRemotePrepare hammers the documented
// read-side operations (GlobalDB, LocalAnswer, EstimateCost) while
// remote Query prepares mutate the mirrors — the regression surface
// for the replica-Put vs snapshot-walk race (run under -race).
func TestReadSideConcurrentWithRemotePrepare(t *testing.T) {
	p := servedPeer(t, 200)
	_, addr := startServer(t, p)
	tr := dialT(t, addr)
	n := pdms.NewNetwork()
	local := pdms.NewPeer("local", relation.NewSchema("class", relation.Attr("t"), relation.IntAttr("s")))
	if err := n.AddPeer(local); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddRemotePeer(context.Background(), "served", tr); err != nil {
		t.Fatal(err)
	}
	if err := n.AddMapping(mustMapping(t)); err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse("q(T) :- class(T, S)")
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				n.InvalidateCaches() // force refetch so prepare really mutates
				if _, err := n.Answer("local", q, pdms.ReformOptions{}); err != nil {
					errs <- err
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				n.GlobalDB()
				if _, err := n.LocalAnswer("served", cq.MustParse("q(T) :- course(T, S)")); err != nil {
					errs <- err
					return
				}
				if _, err := n.EstimateCost("local", q, pdms.CostModel{}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServeWhileMutating hammers a served peer with State/Schemas/Scan
// requests while the serving node keeps inserting and adding schemas —
// the live-freshness scenario the fingerprint probe exists for (run
// under -race; the peer's serving lock is what makes it safe).
func TestServeWhileMutating(t *testing.T) {
	p := servedPeer(t, 50)
	_, addr := startServer(t, p)
	c := dialT(t, addr)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if err := p.Insert("course", relation.Tuple{relation.SV(fmt.Sprintf("live%04d", i)), relation.IV(int64(i))}); err != nil {
				t.Error(err)
				return
			}
			if i%50 == 0 {
				p.AddSchema(relation.NewSchema(fmt.Sprintf("extra%d", i), relation.Attr("x")))
			}
		}
	}()
	for i := 0; i < 40; i++ {
		if _, err := c.State(context.Background(), "served"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Schemas(context.Background(), "served"); err != nil {
			t.Fatal(err)
		}
		rows := 0
		if err := c.Scan(context.Background(), "served", "course", func(b []relation.Tuple) error {
			rows += len(b)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if rows < 50 {
			t.Fatalf("scan snapshot lost rows: %d < 50", rows)
		}
	}
	<-done
}
