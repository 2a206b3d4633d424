package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pdms"
	"repro/internal/relation"
)

// maxIdleConns bounds the client's connection pool. Concurrent requests
// beyond the pool dial extra connections that are closed on return, so
// the pool size caps steady-state sockets, not parallelism (the fetch
// worker pool above bounds that).
const maxIdleConns = 4

// frameOverhead is the framed bytes around every payload (one type byte
// plus the 4-byte big-endian length), counted into Client.WireBytes.
const frameOverhead = 5

// Client speaks the wire protocol to one Server and implements
// pdms.Transport, so a coordinator adds TCP-served peers with
// Network.AddRemotePeer exactly like loopback ones. Connections are
// pooled and handshaken once; requests may run concurrently. A request
// whose context dies mid-stream poisons its connection (the stream
// position is unknown) and returns ctx's error.
//
// The client manages connections and nothing else: it never sleeps and
// holds no retry policy. Its one compensation is for its own pool — a
// request that got nothing back on a pooled connection re-dials once,
// immediately (see do). Every other failure is returned typed to the
// one backoff implementation, Request.Retry in pdms: connection-level
// failures match pdms.ErrPeerUnreachable, handshake protocol mismatches
// match pdms.ErrVersionMismatch (both via errors.Is). What the serving
// node cannot do is learned from its answer, never from this type: a
// refused Delta returns ok=false, a refused ExecPlan matches
// pdms.ErrPlanUnsupported, a refused Subscribe pdms.ErrPushUnsupported.
type Client struct {
	addr string

	wireBytes atomic.Uint64

	mu     sync.Mutex
	idle   []*clientConn
	closed bool
}

// WireBytes returns the total framed bytes this client moved in either
// direction across all requests (header + payload per frame, handshakes
// excluded) — the counter the plan-shipping vs. mirroring byte
// assertions read.
func (c *Client) WireBytes() uint64 { return c.wireBytes.Load() }

var _ pdms.Transport = (*Client)(nil)

// errClientClosed reports a request against a Client after Close —
// terminal, never retried.
var errClientClosed = errors.New("transport: client closed")

// clientConn is one pooled, handshaken connection. buf is the payload
// buffer its frames are read into (see relation.ReadFrame): a frame's
// payload lives only until the connection reads the next one, which the
// decoders the exchanges call allow, as they copy what they keep.
type clientConn struct {
	c   net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	buf []byte
}

// Dial connects to a Server at addr and performs the version handshake
// eagerly, so a wrong address or incompatible server fails at setup
// time, not first query.
func Dial(addr string) (*Client, error) {
	c := &Client{addr: addr}
	cc, err := c.dial(context.Background())
	if err != nil {
		return nil, err
	}
	c.put(cc)
	return c, nil
}

// handshakeTimeout bounds the Hello exchange against a server that
// accepts the TCP connection but never answers — the floor even when
// the caller's context cannot expire (Dial uses Background).
const handshakeTimeout = 10 * time.Second

// dial opens and handshakes one connection. The handshake runs under
// both an absolute deadline and a ctx watchdog, so a hung or
// black-holed server cannot block a caller whose context dies.
func (c *Client) dial(ctx context.Context) (*clientConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %w", pdms.ErrPeerUnreachable, c.addr, err)
	}
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	stop := context.AfterFunc(ctx, func() {
		conn.SetDeadline(time.Now()) // unblock the handshake IO
	})
	cc := &clientConn{c: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	err = func() error {
		if err := relation.WriteFrame(cc.bw, relation.FrameHello, relation.EncodeHello()); err != nil {
			return fmt.Errorf("%w: handshake write: %w", pdms.ErrPeerUnreachable, err)
		}
		if err := cc.bw.Flush(); err != nil {
			return fmt.Errorf("%w: handshake write: %w", pdms.ErrPeerUnreachable, err)
		}
		typ, payload, err := relation.ReadFrame(cc.br, &cc.buf)
		if err != nil {
			// A server that crashes (or a proxy that cuts the wire)
			// mid-handshake lands here: the hello never completed, so the
			// peer is unreachable-class, typed and bounded by the deadline
			// above.
			return fmt.Errorf("%w: handshake: %w", pdms.ErrPeerUnreachable, err)
		}
		if typ == relation.FrameError {
			we, derr := relation.DecodeError(payload)
			if derr != nil {
				return derr
			}
			if we.Code == relation.ErrCodeVersion {
				return fmt.Errorf("%w: %w", pdms.ErrVersionMismatch, we)
			}
			return we
		}
		return checkHello(typ, payload)
	}()
	if !stop() {
		conn.Close()
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	return cc, nil
}

// get returns the connection one exchange runs on: an idle pooled one
// when reuse is allowed and the pool has one (pooled=true), a fresh
// dial otherwise. A pooled connection may have died while idle — that,
// and only that, is what do's immediate re-dial compensates; a fresh
// connection's failure is the peer's and is returned to the caller.
func (c *Client) get(ctx context.Context, reuse bool) (cc *clientConn, pooled bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, errClientClosed
	}
	if n := len(c.idle); reuse && n > 0 {
		cc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, true, nil
	}
	c.mu.Unlock()
	cc, err = c.dial(ctx)
	return cc, false, err
}

// put returns a healthy connection to the pool (closing it when the
// pool is full or the client closed).
func (c *Client) put(cc *clientConn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < maxIdleConns {
		c.idle = append(c.idle, cc)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	cc.c.Close()
}

// dropIdle closes every idle pooled connection (used when one of them
// turns out to be dead: its siblings died with the same server).
func (c *Client) dropIdle() {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, cc := range idle {
		cc.c.Close()
	}
}

// Close closes every pooled connection; in-flight requests finish on
// their own connections, which are then discarded.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.mu.Unlock()
	for _, cc := range idle {
		cc.c.Close()
	}
	return nil
}

// exchange is what one op hands the shared request/response loop: the
// request payload and what to do with the response frames it expects.
type exchange struct {
	request []byte
	// frame consumes one response frame other than an error frame. done
	// means the response is complete and the connection sits at a clean
	// request boundary; errUnexpectedFrame means the op does not expect
	// this frame type here.
	frame func(typ relation.FrameType, payload []byte) (done bool, err error)
	// wireErr maps the server's error frame to the op's typed answer
	// (nil: the *relation.WireError itself is the error).
	wireErr func(*relation.WireError) error
	// dedicated runs the exchange on its own fresh connection that is
	// never pooled and never re-dialled: a subscription owns its
	// connection for life, and its manager owns resubscribe pacing.
	dedicated bool
}

// errUnexpectedFrame is an exchange.frame's verdict on a frame type it
// does not expect; the loop turns it into the protocol-violation error.
var errUnexpectedFrame = errors.New("transport: unexpected frame")

// do runs one request/response exchange. A pooled connection that
// yields nothing — the request could not be written, or the stream
// ended before one response frame — died while idle, which says
// nothing about the peer: its idle siblings are dropped (whatever
// killed one killed them all) and the request runs once more on a
// fresh dial, immediately. Every op is an idempotent read and no frame
// reached the op's callbacks, so the second run cannot duplicate
// anything. A fresh connection that fails, or any exchange that got a
// frame back, is the peer's answer and returns as is — backoff and
// further attempts belong to the caller's Request.Retry.
func (c *Client) do(ctx context.Context, ex exchange) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	cc, pooled, err := c.get(ctx, !ex.dedicated)
	if err != nil {
		return err
	}
	progressed, err := c.doOnce(ctx, cc, ex)
	if err == nil || !pooled || progressed || ctx.Err() != nil {
		return err
	}
	c.dropIdle()
	if cc, _, err = c.get(ctx, false); err != nil {
		return err
	}
	_, err = c.doOnce(ctx, cc, ex)
	return err
}

// doOnce runs the exchange on cc and disposes of cc: back to the pool
// when the response ended at a clean request boundary, closed
// otherwise. It reports whether any response frame arrived
// (progressed). Context death mid-exchange poisons the connection via
// a deadline and surfaces as ctx's error.
func (c *Client) doOnce(ctx context.Context, cc *clientConn, ex exchange) (progressed bool, err error) {
	stop := context.AfterFunc(ctx, func() {
		cc.c.SetDeadline(time.Now()) // unblock any pending read/write
	})
	reusable := false
	err = func() error {
		if err := relation.WriteFrame(cc.bw, relation.FrameRequest, ex.request); err != nil {
			return fmt.Errorf("%w: request write: %w", pdms.ErrPeerUnreachable, err)
		}
		if err := cc.bw.Flush(); err != nil {
			return fmt.Errorf("%w: request write: %w", pdms.ErrPeerUnreachable, err)
		}
		c.wireBytes.Add(uint64(frameOverhead + len(ex.request)))
		for {
			typ, payload, err := relation.ReadFrame(cc.br, &cc.buf)
			if err != nil {
				// A response stream that dies mid-read — reset, EOF, or a
				// corrupted frame — is a connection-level failure: typed
				// unreachable, so callers can errors.Is it and retry policies
				// can classify it.
				return fmt.Errorf("%w: %w", pdms.ErrPeerUnreachable, err)
			}
			progressed = true
			c.wireBytes.Add(uint64(frameOverhead + len(payload)))
			if typ == relation.FrameError {
				we, derr := relation.DecodeError(payload)
				if derr != nil {
					return derr
				}
				reusable = requestLevel(we.Code)
				if ex.wireErr != nil {
					return ex.wireErr(we)
				}
				return we
			}
			done, err := ex.frame(typ, payload)
			if err == errUnexpectedFrame {
				err = fmt.Errorf("transport: unexpected frame type %d in response to op %d", typ, ex.request[0])
			}
			if done || err != nil {
				reusable = done
				return err
			}
		}
	}()
	if !stop() {
		// The watchdog fired: whatever the loop saw (a deadline error, a
		// partial frame) is really a cancellation.
		cc.c.Close()
		if cerr := ctx.Err(); cerr != nil {
			return progressed, cerr
		}
		return progressed, err
	}
	if reusable && !ex.dedicated {
		// reusable may hold even when err != nil: request-level error
		// frames leave the stream at a clean boundary (requestLevel).
		c.put(cc)
	} else {
		cc.c.Close()
	}
	return progressed, err
}

// requestLevel reports whether an error frame with this code leaves the
// connection at a clean request boundary. Per PROTOCOL.md only the
// request-level codes (unknown peer, unknown relation, delta
// unavailable, plan unsupported, row budget) leave the server's side of
// the connection open; for every other code the server closes, so
// pooling the connection would hand a dead socket to a later request.
func requestLevel(code uint64) bool {
	switch code {
	case relation.ErrCodeUnknownPeer, relation.ErrCodeUnknownRelation,
		relation.ErrCodeDeltaUnavailable, relation.ErrCodePlanUnsupported,
		relation.ErrCodeRowBudget:
		return true
	}
	return false
}

// State implements pdms.Transport: one OpState round trip for the
// peer's statistics fingerprint.
func (c *Client) State(ctx context.Context, peer string) (pdms.PeerState, error) {
	var st pdms.PeerState
	err := c.do(ctx, exchange{request: encodeRequest(OpState, peer, ""),
		frame: func(typ relation.FrameType, payload []byte) (bool, error) {
			if typ != relation.FrameStats {
				return false, errUnexpectedFrame
			}
			sv, stats, err := relation.DecodePeerStats(payload)
			if err != nil {
				return false, err
			}
			st = pdms.PeerState{SchemaVersion: sv, Relations: stats}
			return true, nil
		}})
	return st, err
}

// Schemas implements pdms.Transport: one OpSchemas round trip for the
// peer's relation schemas.
func (c *Client) Schemas(ctx context.Context, peer string) ([]relation.Schema, error) {
	var out []relation.Schema
	err := c.do(ctx, exchange{request: encodeRequest(OpSchemas, peer, ""),
		frame: func(typ relation.FrameType, payload []byte) (bool, error) {
			switch typ {
			case relation.FrameSchema:
				s, err := relation.DecodeSchema(payload)
				if err != nil {
					return false, err
				}
				out = append(out, s)
				return false, nil
			case relation.FrameEnd:
				return true, nil
			}
			return false, errUnexpectedFrame
		}})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Delta implements pdms.Transport: one OpDelta round trip for the
// relation's change records since a mutation version. A request-level
// ErrCodeDeltaUnavailable answer — the serving peer is not durable, or
// its log no longer covers the range — returns ok=false with no error
// (the connection stays pooled; the caller falls back to Scan).
func (c *Client) Delta(ctx context.Context, peer, rel string, since uint64) ([]relation.ChangeRecord, bool, error) {
	var recs []relation.ChangeRecord
	ok := false
	err := c.do(ctx, exchange{request: encodeDeltaRequest(peer, rel, since),
		frame: func(typ relation.FrameType, payload []byte) (bool, error) {
			if typ != relation.FrameDelta {
				return false, errUnexpectedFrame
			}
			batch, err := relation.DecodeChangeBatch(payload)
			if err != nil {
				return false, err
			}
			recs, ok = batch, true
			return true, nil
		},
		wireErr: func(we *relation.WireError) error {
			if we.Code == relation.ErrCodeDeltaUnavailable {
				return nil // a clean "can't cover it": scan instead
			}
			return we
		}})
	return recs, ok, err
}

// tupleStream is the response Scan and ExecPlan share: one schema
// frame, then tuple batches handed to deliver as they arrive, then end.
// A deliver error abandons the stream (the connection is discarded, not
// drained).
func tupleStream(deliver func([]relation.Tuple) error) func(relation.FrameType, []byte) (bool, error) {
	sawSchema := false
	return func(typ relation.FrameType, payload []byte) (bool, error) {
		switch typ {
		case relation.FrameSchema:
			if sawSchema {
				return false, errors.New("transport: duplicate schema frame in tuple stream")
			}
			sawSchema = true
			_, err := relation.DecodeSchema(payload)
			return false, err
		case relation.FrameTupleBatch:
			if !sawSchema {
				return false, errors.New("transport: batch before schema frame in tuple stream")
			}
			batch, err := relation.DecodeTupleBatch(payload)
			if err != nil {
				return false, err
			}
			return false, deliver(batch)
		case relation.FrameEnd:
			return true, nil
		}
		return false, errUnexpectedFrame
	}
}

// Scan implements pdms.Transport: the relation's tuples stream in as
// batch frames, each handed to deliver as it arrives.
func (c *Client) Scan(ctx context.Context, peer, rel string, deliver func([]relation.Tuple) error) error {
	return c.do(ctx, exchange{request: encodeRequest(OpScan, peer, rel),
		frame: tupleStream(deliver)})
}

// ExecPlan implements pdms.Transport: one OpQuery round trip that
// executes the sub-plan at the serving peer and streams its distinct
// answers to deliver batch by batch. A server that cannot run the plan
// — an old binary answering ErrCodeBadRequest for the unknown op, a
// peer answering ErrCodePlanUnsupported, or a row-budget overflow
// (ErrCodeRowBudget, possibly mid-stream) — returns an error matching
// pdms.ErrPlanUnsupported via errors.Is, so the caller falls back to
// mirroring; budget overflows additionally match pdms.ErrPlanBudget.
func (c *Client) ExecPlan(ctx context.Context, peer string, sp relation.SubPlan,
	deliver func([]relation.Tuple) error) error {
	return c.do(ctx, exchange{request: encodeQueryRequest(peer, sp),
		frame: tupleStream(deliver),
		wireErr: func(we *relation.WireError) error {
			switch we.Code {
			case relation.ErrCodeRowBudget:
				return fmt.Errorf("%w: %w", pdms.ErrPlanBudget, we)
			case relation.ErrCodePlanUnsupported, relation.ErrCodeBadRequest:
				// ErrCodeBadRequest is how servers predating OpQuery answer
				// the unknown op (and they close the conn, which requestLevel
				// already reflects): same clean fallback.
				return fmt.Errorf("%w: %w", pdms.ErrPlanUnsupported, we)
			}
			return we
		}})
}

// Subscribe implements pdms.Transport: one OpSubscribe exchange on a
// dedicated connection (the subscription owns it for its whole life,
// and the server closes it when the subscription ends). The server's
// stats-frame ack reaches ack, then every pushed delta frame's records
// reach deliver in commit order, until ctx dies, the server ends the
// subscription, or a callback fails. The error classifies the ending:
// pdms.ErrPushUnsupported for a push-disabled or pre-push server
// (terminal — poll instead), pdms.ErrSubscriptionGap for a feed
// overflow (resubscribe after the poll path heals), and
// pdms.ErrPeerUnreachable-class for connection failures.
func (c *Client) Subscribe(ctx context.Context, peer string, since map[string]uint64,
	ack func(pdms.PeerState) error, deliver func([]relation.ChangeRecord) error) error {
	sinceList := make([]relation.RelVersion, 0, len(since))
	for rel, ver := range since {
		sinceList = append(sinceList, relation.RelVersion{Rel: rel, Ver: ver})
	}
	sort.Slice(sinceList, func(i, j int) bool { return sinceList[i].Rel < sinceList[j].Rel })
	acked := false
	return c.do(ctx, exchange{request: encodeSubscribeRequest(peer, sinceList),
		dedicated: true,
		frame: func(typ relation.FrameType, payload []byte) (bool, error) {
			switch typ {
			case relation.FrameStats:
				if acked {
					return false, errors.New("transport: duplicate stats frame in subscription")
				}
				acked = true
				sv, stats, err := relation.DecodePeerStats(payload)
				if err != nil {
					return false, err
				}
				return false, ack(pdms.PeerState{SchemaVersion: sv, Relations: stats})
			case relation.FrameDelta:
				if !acked {
					return false, errors.New("transport: delta before stats ack in subscription")
				}
				recs, err := relation.DecodeChangeBatch(payload)
				if err != nil {
					return false, err
				}
				return false, deliver(recs)
			}
			return false, errUnexpectedFrame
		},
		wireErr: func(we *relation.WireError) error {
			switch we.Code {
			case relation.ErrCodeBadRequest:
				// How push-disabled servers — and pre-push servers, for
				// which the op itself is unknown — refuse a subscription.
				return fmt.Errorf("%w: %w", pdms.ErrPushUnsupported, we)
			case relation.ErrCodeSubscribeGap:
				return fmt.Errorf("%w: %w", pdms.ErrSubscriptionGap, we)
			}
			return we
		}})
}
