package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/pdms"
	"repro/internal/relation"
	"repro/internal/transport"
	"repro/internal/workload"
)

// This file is revere's distributed mode: `revere serve` hosts a slice
// of the deterministic E2 chain workload on a TCP port, and `revere
// query` runs the E2 title query on a coordinator that reaches those
// slices over the wire protocol. Every process regenerates the same
// workload from the shared seed, so the data a server stores and the
// mappings a coordinator registers agree by construction — what the
// query moves over the network is the real tuple traffic. The query
// output ends with a digest of the sorted answer set, so runs with
// different peer placements (all-local, loopback, N OS processes) can
// be compared byte for byte.

// peerRange is a half-open [Lo, Hi) slice of the chain's peer indexes.
type peerRange struct {
	Lo, Hi int
}

// parseRange parses "lo:hi" (half-open, 0-based).
func parseRange(s string, peers int) (peerRange, error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return peerRange{}, fmt.Errorf("range %q: want lo:hi", s)
	}
	l, err := strconv.Atoi(lo)
	if err != nil {
		return peerRange{}, fmt.Errorf("range %q: %v", s, err)
	}
	h, err := strconv.Atoi(hi)
	if err != nil {
		return peerRange{}, fmt.Errorf("range %q: %v", s, err)
	}
	if l < 0 || h > peers || l >= h {
		return peerRange{}, fmt.Errorf("range %q out of bounds for %d peers", s, peers)
	}
	return peerRange{Lo: l, Hi: h}, nil
}

// remoteFlag collects repeated -remote lo:hi=addr assignments.
type remoteFlag struct {
	ranges []peerRange
	addrs  []string
}

// String implements flag.Value.
func (r *remoteFlag) String() string {
	parts := make([]string, len(r.ranges))
	for i, pr := range r.ranges {
		parts[i] = fmt.Sprintf("%d:%d=%s", pr.Lo, pr.Hi, r.addrs[i])
	}
	return strings.Join(parts, ",")
}

// Set implements flag.Value; the range bounds are validated later, when
// the peer count is known.
func (r *remoteFlag) Set(s string) error {
	spec, addr, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("remote %q: want lo:hi=host:port", s)
	}
	lo, hi, ok := strings.Cut(spec, ":")
	if !ok {
		return fmt.Errorf("remote %q: want lo:hi=host:port", s)
	}
	l, err := strconv.Atoi(lo)
	if err != nil {
		return err
	}
	h, err := strconv.Atoi(hi)
	if err != nil {
		return err
	}
	r.ranges = append(r.ranges, peerRange{Lo: l, Hi: h})
	r.addrs = append(r.addrs, addr)
	return nil
}

// genChain regenerates the deterministic E2 chain workload every
// distributed-mode process shares.
func genChain(seed int64, peers, rows int) (*workload.GeneratedNetwork, error) {
	return workload.GenNetwork(workload.NetworkSpec{
		Topology: workload.Chain, Peers: peers, Seed: seed, RowsPerPeer: rows})
}

// runServe hosts a peer range of the E2 chain on a TCP listener until
// interrupted. It prints "listening <addr>" once ready, the line
// supervisors and tests parse to learn an ephemeral port. With -data
// the served peers are durable: each gets a snapshot+WAL store under
// DIR/<peer>, a fresh directory is populated from the generated
// workload (and checkpointed), and a restart — even after SIGKILL —
// recovers the exact pre-crash state, fingerprints included, so
// coordinators that synced before the crash rejoin via Delta records
// instead of full rescans.
func runServe(args []string) error {
	fs := flag.NewFlagSet("revere serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7461", "address to listen on (use :0 for an ephemeral port)")
	seed := fs.Int64("seed", 1, "random seed shared by every process of the deployment")
	peers := fs.Int("peers", 16, "total peers in the chain workload")
	rows := fs.Int("rows", 10, "course rows per peer")
	own := fs.String("own", "", "peer index range lo:hi this process hosts (default: all)")
	data := fs.String("data", "", "durable store directory: peers persist to DIR/<peer> and restarts recover without rescan")
	extra := fs.Int("extra", 0, "insert this many extra deterministic rows per served peer after startup")
	push := fs.Bool("push", false, "serve push subscriptions: subscribed coordinators receive committed changes instead of polling")
	mutate := fs.Int("mutate", 0, "keep inserting this many extra deterministic rows per served peer after startup, one per -mutate-every tick")
	mutateEvery := fs.Duration("mutate-every", 50*time.Millisecond, "interval between -mutate insert rounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := genChain(*seed, *peers, *rows)
	if err != nil {
		return err
	}
	pr := peerRange{Lo: 0, Hi: *peers}
	if *own != "" {
		if pr, err = parseRange(*own, *peers); err != nil {
			return err
		}
	}
	type servedPeer struct {
		idx int
		p   *pdms.Peer
		rel string
		off int
	}
	served := make([]*pdms.Peer, 0, pr.Hi-pr.Lo)
	mutated := make([]servedPeer, 0, pr.Hi-pr.Lo)
	populated, recovered, recRows, replayed := 0, 0, 0, 0
	for i := pr.Lo; i < pr.Hi; i++ {
		name := workload.PeerName(i)
		p := g.Net.Peer(name)
		rel := g.Specs[i].Schema.Name
		if *data != "" {
			// One store directory per peer: relation names may collide
			// across peers (the workload obfuscates vocabularies
			// independently), so peers cannot share a database.
			if p, err = pdms.OpenDurablePeer(name, filepath.Join(*data, name), g.Specs[i].Schema); err != nil {
				return err
			}
			rec := p.Persist().Recovered()
			if n := p.Store.Get(rel).Len(); n > 0 {
				recovered++
				recRows += n
				replayed += rec.Replayed
			} else {
				// Fresh store: ingest the generated workload through the
				// durable peer so every row is logged, then checkpoint so
				// the next start recovers from the snapshot alone.
				for _, row := range g.Specs[i].Data.Rows() {
					if err := p.Insert(rel, row.Clone()); err != nil {
						return err
					}
				}
				if err := p.Checkpoint(); err != nil {
					return err
				}
				populated++
			}
		}
		// Extra rows mutate the serving peer past the shared generated
		// state — the knob the durability test turns to force fingerprint
		// movement (and a delta catch-up) after a restart. Offset by the
		// current row count so repeated restarts keep titles unique.
		off := p.Store.Get(rel).Len()
		for k := 0; k < *extra; k++ {
			if err := p.Insert(rel, g.ExtraRow(i, off+k)); err != nil {
				return err
			}
		}
		served = append(served, p)
		mutated = append(mutated, servedPeer{idx: i, p: p, rel: rel, off: p.Store.Get(rel).Len()})
	}
	if *data != "" {
		fmt.Printf("store %s: populated %d peers, recovered %d peers (%d rows, %d log records replayed)\n",
			*data, populated, recovered, recRows, replayed)
	}
	srv := transport.NewServer(served...)
	srv.Push = *push
	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*listen, ready) }()
	select {
	case err := <-errc:
		return err
	case addr := <-ready:
		fmt.Printf("listening %s\n", addr)
		fmt.Printf("serving peers [%d:%d) of the %d-peer chain (seed %d, %d rows/peer)\n",
			pr.Lo, pr.Hi, *peers, *seed, *rows)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *mutate > 0 {
		// An ongoing deterministic mutation stream: the write load the
		// push-replication process tests subscribe against. Offsets
		// continue past -extra, so every inserted title stays unique and
		// every process can regenerate the exact sequence.
		go func() {
			for k := 0; k < *mutate; k++ {
				select {
				case <-ctx.Done():
					return
				case <-time.After(*mutateEvery):
				}
				for _, sp := range mutated {
					if err := sp.p.Insert(sp.rel, g.ExtraRow(sp.idx, sp.off+k)); err != nil {
						return
					}
				}
			}
		}()
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Println("shutting down")
		err := srv.Close()
		// Clean shutdown folds each durable peer's log into a fresh
		// snapshot; a SIGKILL skips this, which is exactly what the
		// crash-recovery path exists for.
		for _, p := range served {
			if cerr := p.Checkpoint(); cerr != nil && err == nil {
				err = cerr
			}
			if cerr := p.ClosePersist(); cerr != nil && err == nil {
				err = cerr
			}
		}
		return err
	}
}

// runQuery runs the E2 title query at peer 0 on a coordinator whose
// peers are local except for the ranges handed to -remote, which are
// reached over TCP. It prints the answer count against the oracle and
// a digest of the sorted answer set: any two placements of the same
// workload must print the same digest.
func runQuery(args []string) error {
	fs := flag.NewFlagSet("revere query", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "random seed shared by every process of the deployment")
	peers := fs.Int("peers", 16, "total peers in the chain workload")
	rows := fs.Int("rows", 10, "course rows per peer")
	par := fs.Int("par", 0, "union execution parallelism: 0 auto, 1 sequential, N workers")
	retry := fs.Int("retry", 0, "attempts per remote operation (0 = single attempt, no policy)")
	timeout := fs.Duration("timeout", 0, "per-attempt timeout for remote operations (with -retry)")
	stale := fs.Bool("stale", false, "serve last-good mirror snapshots when a remote peer is unreachable")
	ship := fs.String("ship", "never", "plan shipping for stale remote relations: never, auto, or always")
	explain := fs.Bool("explain", false, "print each branch's join order and cost estimate before executing")
	watch := fs.Duration("watch", 0, "re-run the query at this interval until interrupted (0 = run once)")
	push := fs.Bool("push", false, "subscribe to each remote peer's change push: mirrors stay current without per-query State probes")
	var remotes remoteFlag
	fs.Var(&remotes, "remote", "peer range served remotely, as lo:hi=host:port (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	g, err := genChain(*seed, *peers, *rows)
	if err != nil {
		return err
	}
	remoteAddr := make(map[int]string)
	for i, pr := range remotes.ranges {
		if pr.Lo < 0 || pr.Hi > *peers || pr.Lo >= pr.Hi {
			return fmt.Errorf("remote range %d:%d out of bounds for %d peers", pr.Lo, pr.Hi, *peers)
		}
		for p := pr.Lo; p < pr.Hi; p++ {
			remoteAddr[p] = remotes.addrs[i]
		}
	}
	clients := make(map[string]*transport.Client)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	n := pdms.NewNetwork()
	for i := 0; i < *peers; i++ {
		name := workload.PeerName(i)
		addr, remote := remoteAddr[i]
		if !remote {
			if err := n.AddPeer(g.Net.Peer(name)); err != nil {
				return err
			}
			continue
		}
		c := clients[addr]
		if c == nil {
			if c, err = transport.Dial(addr); err != nil {
				return fmt.Errorf("dial %s: %w", addr, err)
			}
			clients[addr] = c
		}
		if _, err := n.AddRemotePeer(ctx, name, c); err != nil {
			return err
		}
	}
	for _, m := range g.Net.Mappings() {
		if err := n.AddMapping(m); err != nil {
			return err
		}
	}
	if *push {
		seen := make(map[int]bool)
		for i := range remoteAddr {
			if seen[i] {
				continue
			}
			seen[i] = true
			if err := n.StartPush(ctx, workload.PeerName(i)); err != nil {
				return err
			}
		}
		defer func() {
			for i := range seen {
				n.StopPush(workload.PeerName(i))
			}
		}()
	}
	// -retry/-timeout select the declarative retry policy; without them
	// the zero policy keeps the pre-policy single-attempt behavior.
	var pol pdms.RetryPolicy
	if *retry > 0 || *timeout > 0 {
		pol = pdms.DefaultRetryPolicy()
		if *retry > 0 {
			pol.MaxAttempts = *retry
		}
		if *timeout > 0 {
			pol.OpTimeout = *timeout
		}
	}
	var shipMode pdms.ShipMode
	switch *ship {
	case "never":
		shipMode = pdms.ShipNever
	case "auto":
		shipMode = pdms.ShipAuto
	case "always":
		shipMode = pdms.ShipAlways
	default:
		return fmt.Errorf("unknown -ship mode %q (want never, auto, or always)", *ship)
	}
	req := pdms.Request{
		Peer:        workload.PeerName(0),
		Query:       g.TitleQuery(0),
		Reform:      pdms.ReformOptions{MaxDepth: *peers + 1},
		Parallelism: *par,
		Retry:       pol,
		AllowStale:  *stale,
		Ship:        shipMode,
	}
	runOnce := func() error {
		cur, err := n.Query(ctx, req)
		if err != nil {
			return err
		}
		if *explain {
			fmt.Print(cur.Explain())
		}
		answers, err := cur.Materialize()
		if err != nil {
			return err
		}
		fmt.Printf("E2 chain peers=%d remote=%d reform=%s exec=%s\n",
			*peers, len(remoteAddr), cur.ReformTime(), cur.ExecTime())
		for _, d := range cur.Degraded() {
			fmt.Printf("degraded %s last-sync %s: %v\n", d.Peer, d.LastSync.Format("15:04:05.000"), d.Err)
		}
		if r := cur.Retries(); r > 0 {
			fmt.Printf("retries %d\n", r)
		}
		// Cumulative replica-refresh counters: the proof line the
		// durability churn test parses to show a restarted durable peer
		// rejoined via Delta records, not full relation scans.
		scans, deltas, ships := n.RemoteSyncCounts()
		fmt.Printf("sync scans %d deltas %d ships %d\n", scans, deltas, ships)
		if *push {
			// Cumulative push counters on their own line: the sync line
			// above stays byte-identical for the existing parsers.
			pb, prec, pg := n.PushCounts()
			fmt.Printf("push batches %d records %d gaps %d\n", pb, prec, pg)
		}
		fmt.Printf("answers %d oracle %d digest %s\n",
			answers.Len(), len(g.AllTitles), AnswerDigest(answers))
		return nil
	}
	if *watch <= 0 {
		return runOnce()
	}
	// Watch mode keeps one coordinator (and its remote mirrors) alive
	// across iterations, so killing and restarting a serve process mid
	// -watch demonstrates the full degradation cycle: fresh → degraded
	// stale serving (with -stale) or typed failure (without) → fresh
	// again once the background prober sees the peer return.
	for {
		if err := runOnce(); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			fmt.Printf("query error: %v\n", err)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(*watch):
		}
	}
}

// AnswerDigest renders a relation's canonical content digest: the
// sorted, deduplicated rows in their wire encoding, hashed. Two answer
// sets are byte-identical iff their digests match — the check the
// distributed acceptance test and the CI chain step rely on.
func AnswerDigest(r *relation.Relation) string {
	rows := append([]relation.Tuple(nil), r.Rows()...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Less(rows[j]) })
	sum := sha256.Sum256(relation.EncodeTupleBatch(rows))
	return hex.EncodeToString(sum[:8])
}
