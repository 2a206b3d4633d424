package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/pdms"
	"repro/internal/relation"
	"repro/internal/transport"
	"repro/internal/workload"
)

// This file is the serving side of the two-process topology: the bench
// binary re-executed as `bench node ...`. It composes the same public
// calls `revere serve` does (workload generator → pdms.NewPeer or
// pdms.OpenDurablePeer → transport.NewServer with Push on) and then
// takes line commands on stdin, one reply line per command, so the
// driver decides exactly when a write, a checkpoint or a span dump
// happens. Closing stdin ends the process, so a node never outlives
// its driver.

// Topology constants shared by node and driver.
const (
	chainPeers  = 16 // peers in the E2 chain
	chainLocal  = 8  // peers 0..7 live in the driver, 8..15 on the node
	dimKeys     = 64 // distinct join keys of the skewed join
	joinSrcPeer = "src"
	joinRel     = "fact"
)

var factSchema = relation.NewSchema(joinRel, relation.Attr("key"), relation.Attr("payload"))

// writeRow is the k-th deterministic row a write inserts into fact: its
// key always matches a dim row, so every write grows the join's answer
// by exactly writeAnswer(k).
func writeRow(k int) relation.Tuple {
	return relation.Tuple{relation.SV(fmt.Sprintf("k%d", k%dimKeys)), relation.SV(fmt.Sprintf("pushed%d", k))}
}

// writeAnswer is the answer tuple q(P, L) gains from writeRow(k).
func writeAnswer(k int) relation.Tuple {
	return relation.Tuple{relation.SV(fmt.Sprintf("pushed%d", k)), relation.SV(fmt.Sprintf("l%d", (k%dimKeys)%7))}
}

func genChain(seed int64, rows int) (*workload.GeneratedNetwork, error) {
	return workload.GenNetwork(workload.NetworkSpec{
		Topology: workload.Chain, Peers: chainPeers, Seed: seed, RowsPerPeer: rows})
}

// nodeSpan is one node-side span, reported by dump-spans. Times are
// wall-clock Unix nanoseconds, comparable with the driver's on one host.
type nodeSpan struct {
	name       string
	start, end int64
}

type nodeState struct {
	src   *pdms.Peer // the durable or in-memory join peer; nil for the chain
	dir   string
	spans []nodeSpan
}

func (s *nodeState) span(name string, start time.Time) time.Duration {
	end := time.Now()
	s.spans = append(s.spans, nodeSpan{name, start.UnixNano(), end.UnixNano()})
	return end.Sub(start)
}

// nodeMain runs the hidden node mode and returns the process exit code.
func nodeMain(args []string) int {
	fs := flag.NewFlagSet("bench node", flag.ContinueOnError)
	kind := fs.String("kind", "", "chain or join")
	seed := fs.Int64("seed", 42, "workload seed")
	rows := fs.Int("rows", 0, "rows per peer (chain) or fact rows (join)")
	data := fs.String("data", "", "durable store directory (join only)")
	listen := fs.String("listen", "127.0.0.1:0", "listen address")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := runNode(*kind, *seed, *rows, *data, *listen); err != nil {
		fmt.Fprintln(os.Stderr, "bench node:", err)
		return 1
	}
	return 0
}

func runNode(kind string, seed int64, rows int, data, listen string) error {
	st := &nodeState{dir: data}
	var served []*pdms.Peer
	replayed, recoverNS := 0, int64(0)
	switch kind {
	case "chain":
		g, err := genChain(seed, rows)
		if err != nil {
			return err
		}
		for i := chainLocal; i < chainPeers; i++ {
			served = append(served, g.Net.Peer(workload.PeerName(i)))
		}
	case "join":
		if data == "" {
			st.src = pdms.NewPeer(joinSrcPeer, factSchema)
		} else {
			t0 := time.Now()
			p, err := pdms.OpenDurablePeer(joinSrcPeer, data, factSchema)
			if err != nil {
				return err
			}
			recoverNS = int64(st.span("store.recover", t0))
			replayed = p.Persist().Recovered().Replayed
			st.src = p
		}
		if st.src.Store.Get(joinRel).Len() == 0 {
			// Fresh peer: ingest the generated fact rows through Peer.Insert
			// (logged when durable), then checkpoint so a restart recovers
			// from the snapshot plus only the writes that followed.
			db, _, err := workload.SkewedJoin(workload.SkewedJoinSpec{FactRows: rows, DimKeys: dimKeys, Seed: seed})
			if err != nil {
				return err
			}
			for _, row := range db.Get(joinRel).Rows() {
				if err := st.src.Insert(joinRel, row); err != nil {
					return err
				}
			}
			if err := st.src.Checkpoint(); err != nil {
				return err
			}
		}
		served = []*pdms.Peer{st.src}
	default:
		return fmt.Errorf("unknown -kind %q", kind)
	}
	srv := transport.NewServer(served...)
	srv.Push = true
	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(listen, ready) }()
	select {
	case err := <-errc:
		return err
	case addr := <-ready:
		fmt.Printf("listening %s replayed=%d recover_ns=%d\n", addr, replayed, recoverNS)
	}
	cmdErr := st.serveCommands(os.Stdin, os.Stdout)
	err := srv.Close()
	if st.src != nil {
		if cerr := st.src.ClosePersist(); err == nil {
			err = cerr
		}
	}
	if cmdErr != nil {
		return cmdErr
	}
	return err
}

// serveCommands answers stdin commands until EOF:
//
//	insert FROM COUNT → "ok VERSION NS"  COUNT Peer.Inserts of writeRow(FROM..), total time
//	checkpoint        → "ok NS"
//	walsize           → "ok BYTES"
//	dump-spans        → one JSON span per line, then "end"
func (s *nodeState) serveCommands(in io.Reader, out io.Writer) error {
	w := bufio.NewWriter(out)
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		reply, err := s.command(f, w)
		if err != nil {
			reply = "err " + strings.ReplaceAll(err.Error(), "\n", " ")
		}
		fmt.Fprintln(w, reply)
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return sc.Err()
}

func (s *nodeState) command(f []string, w *bufio.Writer) (string, error) {
	if s.src == nil {
		return "", fmt.Errorf("chain nodes take no commands")
	}
	switch f[0] {
	case "insert":
		if len(f) != 3 {
			return "", fmt.Errorf("usage: insert FROM COUNT")
		}
		from, err1 := strconv.Atoi(f[1])
		count, err2 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil {
			return "", fmt.Errorf("insert: bad numbers %q %q", f[1], f[2])
		}
		t0 := time.Now()
		for k := from; k < from+count; k++ {
			if err := s.src.Insert(joinRel, writeRow(k)); err != nil {
				return "", err
			}
		}
		d := s.span("store.append", t0)
		return fmt.Sprintf("ok %d %d", s.src.Store.Get(joinRel).Version(), d.Nanoseconds()), nil
	case "checkpoint":
		t0 := time.Now()
		if err := s.src.Checkpoint(); err != nil {
			return "", err
		}
		return fmt.Sprintf("ok %d", s.span("store.checkpoint", t0).Nanoseconds()), nil
	case "walsize":
		fi, err := os.Stat(filepath.Join(s.dir, "wal"))
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("ok %d", fi.Size()), nil
	case "dump-spans":
		for _, sp := range s.spans {
			fmt.Fprintf(w, "{\"proc\":\"node\",\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n", sp.name, sp.start, sp.end)
		}
		return "end", nil
	}
	return "", fmt.Errorf("unknown command %q", f[0])
}
