package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/pdms"
	"repro/internal/relation"
)

// Server hosts a set of local peers over the wire protocol. One server
// may serve many peers (a node runs one listener, not one per peer).
// Reads happen on connection goroutines concurrently with each other
// and — through the peers' Serving* accessors, which snapshot under the
// peer's serving lock — safely against the node's own commits
// (Peer.Insert, Peer.Delete, Network.Publish, Network.UpdateThroughView)
// and Peer.AddSchema calls, so a served peer may keep mutating live (the
// scenario the protocol's freshness probe exists for). Direct
// Store/relation manipulation bypasses Peer and still requires external
// synchronization with serving.
type Server struct {
	// BatchSize is the number of tuples per scan batch frame
	// (pdms.DefaultScanBatch when zero). Set before Serve.
	BatchSize int
	// Push enables OpSubscribe. Off by default: a push-disabled server
	// answers subscriptions with ErrCodeBadRequest and closes the
	// connection — byte-identical to a pre-push server, which is what
	// keeps old and new binaries mixable (the client falls back to
	// polling either way). Set before Serve.
	Push bool
	// FeedQueue bounds each subscription's change feed
	// (pdms.DefaultFeedQueue when zero). A subscriber that falls this
	// many records behind is gapped and evicted. Set before Serve.
	FeedQueue int

	peers map[string]*pdms.Peer

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a server hosting the given peers.
func NewServer(peers ...*pdms.Peer) *Server {
	s := &Server{peers: make(map[string]*pdms.Peer, len(peers)),
		conns: make(map[net.Conn]struct{})}
	for _, p := range peers {
		s.peers[p.Name] = p
	}
	return s
}

// PeerNames returns the served peers' names in registration-map order.
func (s *Server) PeerNames() []string {
	out := make([]string, 0, len(s.peers))
	for name := range s.peers {
		out = append(out, name)
	}
	return out
}

// Serve accepts connections on ln until Close, handling each on its own
// goroutine. It returns nil after Close; any other accept error is
// returned as-is. The caller owns creating the listener (so tests can
// bind ":0" and read the port back).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("transport: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				s.wg.Wait()
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(c)
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// ListenAndServe binds addr and serves on it, reporting the bound
// address through ready (which receives exactly once, before accepting)
// when non-nil — the hook process supervisors and tests use to learn an
// ":0" port.
func (s *Server) ListenAndServe(addr string, ready chan<- net.Addr) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr()
	}
	return s.Serve(ln)
}

// Close stops accepting, closes every open connection, and waits for
// the connection goroutines to drain. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// handle speaks the protocol on one connection: handshake, then a
// request/response loop until the peer hangs up or a protocol error
// poisons the stream.
func (s *Server) handle(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	bw := bufio.NewWriter(c)
	// buf is the connection's reused payload buffer: a request's payload
	// is decoded before the next request is read, and the decoders copy
	// what they keep.
	var buf []byte
	typ, payload, err := relation.ReadFrame(br, &buf)
	if err != nil {
		return
	}
	if err := checkHello(typ, payload); err != nil {
		var we *relation.WireError
		if errors.As(err, &we) {
			relation.WriteFrame(bw, relation.FrameError, relation.EncodeError(we.Code, we.Message))
			bw.Flush()
		}
		return
	}
	if err := relation.WriteFrame(bw, relation.FrameHello, relation.EncodeHello()); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	for {
		typ, payload, err := relation.ReadFrame(br, &buf)
		if err != nil {
			return // EOF: client done with the connection
		}
		if typ != relation.FrameRequest {
			s.sendError(bw, relation.ErrCodeBadRequest, fmt.Sprintf("unexpected frame type %d", typ))
			return
		}
		op, peerName, rel, since, sub, err := decodeRequest(payload)
		if err != nil {
			s.sendError(bw, relation.ErrCodeBadRequest, err.Error())
			return
		}
		p := s.peers[peerName]
		if p == nil {
			// Request-level error: the stream stays healthy.
			if !s.sendError(bw, relation.ErrCodeUnknownPeer, "server hosts no peer "+peerName) {
				return
			}
			continue
		}
		var ok bool
		switch op {
		case OpState:
			ok = s.serveState(bw, p)
		case OpSchemas:
			ok = s.serveSchemas(bw, p)
		case OpScan:
			ok = s.serveScan(bw, p, rel)
		case OpDelta:
			ok = s.serveDelta(bw, p, rel, since)
		case OpQuery:
			ok = s.serveQuery(bw, p, sub)
		case OpSubscribe:
			// A subscription takes over the connection for its whole
			// life; whatever way it ends, the connection closes.
			s.serveSubscribe(br, bw, p, sub)
			return
		default:
			s.sendError(bw, relation.ErrCodeBadRequest, fmt.Sprintf("unknown op %d", op))
			return
		}
		if !ok {
			return
		}
	}
}

// sendError writes a request-level error frame, reporting whether the
// connection is still usable.
func (s *Server) sendError(bw *bufio.Writer, code uint64, msg string) bool {
	if err := relation.WriteFrame(bw, relation.FrameError, relation.EncodeError(code, msg)); err != nil {
		return false
	}
	return bw.Flush() == nil
}

// serveState answers OpState with one stats frame: the peer's schema
// version plus every stored relation's statistics fingerprint.
func (s *Server) serveState(bw *bufio.Writer, p *pdms.Peer) bool {
	sv, stats := p.ServingState()
	payload := relation.EncodePeerStats(sv, stats)
	if err := relation.WriteFrame(bw, relation.FrameStats, payload); err != nil {
		return false
	}
	return bw.Flush() == nil
}

// serveSchemas answers OpSchemas with one schema frame per relation,
// terminated by an end frame.
func (s *Server) serveSchemas(bw *bufio.Writer, p *pdms.Peer) bool {
	for _, schema := range p.ServingSchemas() {
		if err := relation.WriteFrame(bw, relation.FrameSchema, relation.EncodeSchema(schema)); err != nil {
			return false
		}
	}
	if err := relation.WriteFrame(bw, relation.FrameEnd, nil); err != nil {
		return false
	}
	return bw.Flush() == nil
}

// serveScan answers OpScan with the relation's schema, its tuples in
// batch frames (flushed per batch so the client streams), and an end
// frame. The rows come from a snapshot taken under the peer's serving
// lock, so the node may keep inserting while the scan streams.
func (s *Server) serveScan(bw *bufio.Writer, p *pdms.Peer, rel string) bool {
	r := p.ServingScan(rel)
	if r == nil {
		return s.sendError(bw, relation.ErrCodeUnknownRelation,
			"peer "+p.Name+" has no relation "+rel)
	}
	if err := relation.WriteFrame(bw, relation.FrameSchema, relation.EncodeSchema(r.Schema)); err != nil {
		return false
	}
	batch := s.BatchSize
	if batch <= 0 {
		batch = pdms.DefaultScanBatch
	}
	rows := r.Rows()
	var enc []byte
	for len(rows) > 0 {
		n := batch
		if n > len(rows) {
			n = len(rows)
		}
		enc = relation.AppendTupleBatch(enc[:0], rows[:n])
		if err := relation.WriteFrame(bw, relation.FrameTupleBatch, enc); err != nil {
			return false
		}
		if err := bw.Flush(); err != nil {
			return false
		}
		rows = rows[n:]
	}
	if err := relation.WriteFrame(bw, relation.FrameEnd, nil); err != nil {
		return false
	}
	return bw.Flush() == nil
}

// serveQuery answers OpQuery by executing the shipped sub-plan at the
// serving peer and streaming its distinct answers: the answer schema,
// tuple batches flushed as they are produced, and an end frame. Plans
// the peer cannot execute answer a request-level ErrCodePlanUnsupported
// error and a row-budget overflow a request-level ErrCodeRowBudget
// error — in both cases the connection stays pooled and the client
// falls back to mirroring. A budget overflow detected mid-stream still
// ends with a clean error frame (the frame boundary keeps the stream
// parseable); the client discards the partial batches.
func (s *Server) serveQuery(bw *bufio.Writer, p *pdms.Peer, sub []byte) bool {
	sp, err := relation.DecodeSubPlan(sub)
	if err != nil {
		s.sendError(bw, relation.ErrCodeBadRequest, err.Error())
		return false
	}
	wroteFrames := false
	var enc []byte
	err = p.ServingExecPlan(context.Background(), sp, s.BatchSize,
		func(schema relation.Schema) error {
			if err := relation.WriteFrame(bw, relation.FrameSchema, relation.EncodeSchema(schema)); err != nil {
				return err
			}
			wroteFrames = true
			return nil
		},
		func(batch []relation.Tuple) error {
			enc = relation.AppendTupleBatch(enc[:0], batch)
			if err := relation.WriteFrame(bw, relation.FrameTupleBatch, enc); err != nil {
				return err
			}
			return bw.Flush()
		})
	if err != nil {
		switch {
		case errors.Is(err, pdms.ErrPlanBudget):
			return s.sendError(bw, relation.ErrCodeRowBudget, err.Error())
		case errors.Is(err, pdms.ErrPlanUnsupported) && !wroteFrames:
			return s.sendError(bw, relation.ErrCodePlanUnsupported, err.Error())
		}
		s.sendError(bw, relation.ErrCodeInternal, err.Error())
		return false
	}
	if err := relation.WriteFrame(bw, relation.FrameEnd, nil); err != nil {
		return false
	}
	return bw.Flush() == nil
}

// serveSubscribe answers OpSubscribe: register a bounded change feed
// on the served peer, write a stats-frame ack (the peer's fingerprint
// at subscribe time — the subscriber anchors its freshness on it), then
// push delta frames as the peer commits until the subscriber hangs up,
// the server closes, or the feed overflows. Overflow — a slow
// subscriber — ends the subscription with an ErrCodeSubscribeGap error
// frame: the subscriber is evicted back to the poll path and may
// resubscribe from its refreshed fingerprints. Push disabled answers
// ErrCodeBadRequest exactly like a pre-push server refusing an unknown
// op, so old clients and old servers interoperate. The connection is
// dedicated to the subscription either way; the caller closes it.
func (s *Server) serveSubscribe(br *bufio.Reader, bw *bufio.Writer, p *pdms.Peer, sub []byte) {
	if !s.Push {
		s.sendError(bw, relation.ErrCodeBadRequest, "push disabled; poll instead")
		return
	}
	sinceList, err := relation.DecodeSubscribeSince(sub)
	if err != nil {
		s.sendError(bw, relation.ErrCodeBadRequest, err.Error())
		return
	}
	since := make(map[string]uint64, len(sinceList))
	for _, rv := range sinceList {
		since[rv.Rel] = rv.Ver
	}
	max := s.FeedQueue
	if max <= 0 {
		max = pdms.DefaultFeedQueue
	}
	feed, sv, stats := p.FeedSubscribe(since, max)
	defer feed.Close()
	// The subscriber signals unsubscription by closing its connection;
	// a dedicated reader notices the hangup (or any stray frame, which
	// is equally terminal) and releases the push loop below.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		for {
			if _, _, err := relation.ReadFrame(br, nil); err != nil {
				feed.Close()
				return
			}
		}
	}()
	if err := relation.WriteFrame(bw, relation.FrameStats, relation.EncodePeerStats(sv, stats)); err != nil {
		return
	}
	if bw.Flush() != nil {
		return
	}
	for {
		recs, err := feed.Next()
		if err != nil {
			if errors.Is(err, pdms.ErrSubscriptionGap) {
				s.sendError(bw, relation.ErrCodeSubscribeGap,
					fmt.Sprintf("peer %s change feed overflowed %d records; resubscribe", p.Name, max))
			}
			return
		}
		if !s.pushBatch(bw, recs) {
			return
		}
	}
}

// pushBatch writes a drained feed batch as delta frames, splitting it
// as needed to respect the frame payload cap, and flushes so the
// subscriber sees the records immediately.
func (s *Server) pushBatch(bw *bufio.Writer, recs []relation.ChangeRecord) bool {
	for len(recs) > 0 {
		n := len(recs)
		payload := relation.EncodeChangeBatch(recs[:n])
		for len(payload) > relation.MaxFramePayload && n > 1 {
			n /= 2
			payload = relation.EncodeChangeBatch(recs[:n])
		}
		if len(payload) > relation.MaxFramePayload {
			// A single record larger than a frame cannot be pushed.
			s.sendError(bw, relation.ErrCodeInternal,
				fmt.Sprintf("change record exceeds one frame (%d bytes)", len(payload)))
			return false
		}
		if err := relation.WriteFrame(bw, relation.FrameDelta, payload); err != nil {
			return false
		}
		recs = recs[n:]
	}
	return bw.Flush() == nil
}

// serveDelta answers OpDelta with one delta frame of the relation's
// change records since the requested version. A range the peer cannot
// cover from its resident log — not durable, checkpointed past since,
// unknown relation, or a batch too large for one frame — answers with a
// request-level ErrCodeDeltaUnavailable error: the connection stays
// healthy and the client falls back to a full scan.
func (s *Server) serveDelta(bw *bufio.Writer, p *pdms.Peer, rel string, since uint64) bool {
	recs, ok := p.ServingDelta(rel, since)
	if !ok {
		return s.sendError(bw, relation.ErrCodeDeltaUnavailable,
			fmt.Sprintf("peer %s cannot serve %s deltas since version %d; rescan", p.Name, rel, since))
	}
	payload := relation.EncodeChangeBatch(recs)
	if len(payload) > relation.MaxFramePayload {
		return s.sendError(bw, relation.ErrCodeDeltaUnavailable,
			fmt.Sprintf("delta for %s exceeds one frame (%d bytes); rescan", rel, len(payload)))
	}
	if err := relation.WriteFrame(bw, relation.FrameDelta, payload); err != nil {
		return false
	}
	return bw.Flush() == nil
}
