// Package faults injects deterministic, seeded failures into the
// distributed tier so the chaos and churn suites can drive every
// fault path on demand. It has two tools: Transport, a composable
// decorator over any pdms.Transport (Loopback or the TCP client) that
// injects latency, typed error frames, connection drops, operation
// hangs, mid-scan stream cuts, and full per-peer blackouts; and Proxy
// (proxy.go), a TCP relay that cuts or mutes the socket itself, for
// faults below the Transport seam (mid-handshake crashes, mid-frame
// drops). Both are test/bench machinery: production deployments never
// import this package, but the retry policy, degradation, and
// down-peer paths it exercises are the production code.
package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pdms"
	"repro/internal/relation"
)

// ErrInjected is the base of every fault the Transport decorator
// injects as a connection-level failure (drops, blackouts): wrapped
// errors match it AND pdms.ErrPeerUnreachable via errors.Is, so the
// production retry/degradation machinery classifies them exactly like
// a real dead connection while tests can still tell injected faults
// from genuine ones.
var ErrInjected = errors.New("faults: injected fault")

// injected builds one injected unreachable-class error.
func injected(kind, peer string) error {
	return fmt.Errorf("%w: %w: %s to peer %s", pdms.ErrPeerUnreachable, ErrInjected, kind, peer)
}

// Config declares the fault mix. Probabilities are per operation (per
// batch for ScanDropProb), evaluated from the seeded source in a fixed
// order, so one seed reproduces one exact fault schedule.
type Config struct {
	// Seed feeds the deterministic fault schedule.
	Seed int64
	// LatencyProb is the chance an op is delayed before running.
	LatencyProb float64
	// MaxLatency bounds the injected delay (uniform in (0, MaxLatency];
	// 5ms when zero and latency fires).
	MaxLatency time.Duration
	// ErrorProb is the chance an op answers with a typed server-side
	// error frame (relation.ErrCodeInternal — the transient, retryable
	// kind).
	ErrorProb float64
	// DropProb is the chance an op fails as a dropped connection before
	// reaching the peer.
	DropProb float64
	// HangProb is the chance an op blocks until its context dies — a
	// black-holed peer. Callers must bound ops with a timeout (the
	// retry policy's OpTimeout); an unbounded context hangs forever,
	// which is exactly the failure mode this simulates.
	HangProb float64
	// ScanDropProb is the chance, per delivered batch, that the scan's
	// connection drops mid-stream right after that batch.
	ScanDropProb float64
}

// Transport wraps an inner pdms.Transport with the configured fault
// mix: every op passes the same gate (before) and then reaches the
// inner transport, whose answer — refusals included — is forwarded
// untouched. It is safe for concurrent use; the fault schedule is drawn
// from one seeded source under a lock, so concurrent runs stay
// reproducible in aggregate (each op draws the next slice of the
// schedule).
type Transport struct {
	inner pdms.Transport
	cfg   Config

	mu  sync.Mutex
	rng *rand.Rand

	blackMu    sync.RWMutex
	blackedOut map[string]bool

	// Counters: how many of each fault actually fired (observability
	// for the chaos suite).
	latencies atomic.Uint64
	errsInj   atomic.Uint64
	drops     atomic.Uint64
	hangs     atomic.Uint64
	scanDrops atomic.Uint64
}

var _ pdms.Transport = (*Transport)(nil)

// New wraps inner with the given fault configuration.
func New(inner pdms.Transport, cfg Config) *Transport {
	return &Transport{
		inner:      inner,
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		blackedOut: make(map[string]bool),
	}
}

// Counts reports how many faults of each kind have fired.
func (t *Transport) Counts() (latencies, errors, drops, hangs, scanDrops uint64) {
	return t.latencies.Load(), t.errsInj.Load(), t.drops.Load(),
		t.hangs.Load(), t.scanDrops.Load()
}

// Blackout switches a full peer blackout on or off: while on, every
// operation to that peer fails immediately as unreachable — the
// decorator-level equivalent of the peer's node losing power.
func (t *Transport) Blackout(peer string, on bool) {
	t.blackMu.Lock()
	t.blackedOut[peer] = on
	t.blackMu.Unlock()
}

// blacked reports whether peer is currently blacked out.
func (t *Transport) blacked(peer string) bool {
	t.blackMu.RLock()
	defer t.blackMu.RUnlock()
	return t.blackedOut[peer]
}

// draw evaluates the per-op fault schedule in fixed order, returning
// the latency to inject (0 = none) and which op-level fault fires.
type opFault int

const (
	faultNone opFault = iota
	faultError
	faultDrop
	faultHang
)

func (t *Transport) draw() (time.Duration, opFault) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var lat time.Duration
	if t.cfg.LatencyProb > 0 && t.rng.Float64() < t.cfg.LatencyProb {
		max := t.cfg.MaxLatency
		if max <= 0 {
			max = 5 * time.Millisecond
		}
		lat = time.Duration(t.rng.Int63n(int64(max))) + 1
	}
	switch {
	case t.cfg.ErrorProb > 0 && t.rng.Float64() < t.cfg.ErrorProb:
		return lat, faultError
	case t.cfg.DropProb > 0 && t.rng.Float64() < t.cfg.DropProb:
		return lat, faultDrop
	case t.cfg.HangProb > 0 && t.rng.Float64() < t.cfg.HangProb:
		return lat, faultHang
	}
	return lat, faultNone
}

// drawScanDrop evaluates the per-batch mid-scan drop.
func (t *Transport) drawScanDrop() bool {
	if t.cfg.ScanDropProb <= 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rng.Float64() < t.cfg.ScanDropProb
}

// before runs the pre-op fault gate shared by every operation:
// blackout, injected latency, error frame, drop, or hang. A nil return
// means the op may proceed to the inner transport.
func (t *Transport) before(ctx context.Context, op, peer string) error {
	if t.blacked(peer) {
		t.drops.Add(1)
		return injected("blackout", peer)
	}
	lat, fault := t.draw()
	if lat > 0 {
		t.latencies.Add(1)
		timer := time.NewTimer(lat)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
	}
	switch fault {
	case faultError:
		t.errsInj.Add(1)
		return &relation.WireError{Code: relation.ErrCodeInternal,
			Message: fmt.Sprintf("faults: injected server error during %s to %s", op, peer)}
	case faultDrop:
		t.drops.Add(1)
		return injected("connection drop during "+op, peer)
	case faultHang:
		t.hangs.Add(1)
		<-ctx.Done()
		return ctx.Err()
	}
	return nil
}

// State implements pdms.Transport with the fault gate in front.
func (t *Transport) State(ctx context.Context, peer string) (pdms.PeerState, error) {
	if err := t.before(ctx, "state", peer); err != nil {
		return pdms.PeerState{}, err
	}
	return t.inner.State(ctx, peer)
}

// Schemas implements pdms.Transport with the fault gate in front.
func (t *Transport) Schemas(ctx context.Context, peer string) ([]relation.Schema, error) {
	if err := t.before(ctx, "schemas", peer); err != nil {
		return nil, err
	}
	return t.inner.Schemas(ctx, peer)
}

// Scan implements pdms.Transport: the fault gate runs up front, and
// each delivered batch may additionally trip a mid-stream connection
// drop — the generalized form of the byte-limited-proxy trick, at the
// Transport seam.
func (t *Transport) Scan(ctx context.Context, peer, rel string, deliver func([]relation.Tuple) error) error {
	if err := t.before(ctx, "scan", peer); err != nil {
		return err
	}
	return t.inner.Scan(ctx, peer, rel, func(batch []relation.Tuple) error {
		if err := deliver(batch); err != nil {
			return err
		}
		if t.drawScanDrop() {
			t.scanDrops.Add(1)
			return injected("connection drop mid-scan of "+rel, peer)
		}
		return nil
	})
}

// ExecPlan implements pdms.Transport: the fault gate runs up front,
// and each delivered answer batch may additionally trip a mid-stream
// connection drop (the same per-batch schedule Scan uses, so a
// shipped-plan stream dies exactly like a scan stream).
func (t *Transport) ExecPlan(ctx context.Context, peer string, sp relation.SubPlan,
	deliver func([]relation.Tuple) error) error {
	if err := t.before(ctx, "execplan", peer); err != nil {
		return err
	}
	return t.inner.ExecPlan(ctx, peer, sp, func(batch []relation.Tuple) error {
		if err := deliver(batch); err != nil {
			return err
		}
		if t.drawScanDrop() {
			t.scanDrops.Add(1)
			return injected("connection drop mid-shipped-plan stream", peer)
		}
		return nil
	})
}

// Subscribe implements pdms.Transport: the fault gate runs up front (a
// blackout or drop kills the subscription before it starts, exactly
// like a dead dial), and each delivered push batch may additionally
// trip a mid-stream connection drop on the same per-batch schedule Scan
// uses — the slow-network subscriber the resubscribe path exists for.
func (t *Transport) Subscribe(ctx context.Context, peer string, since map[string]uint64,
	ack func(pdms.PeerState) error, deliver func([]relation.ChangeRecord) error) error {
	if err := t.before(ctx, "subscribe", peer); err != nil {
		return err
	}
	return t.inner.Subscribe(ctx, peer, since, ack, func(recs []relation.ChangeRecord) error {
		if err := deliver(recs); err != nil {
			return err
		}
		if t.drawScanDrop() {
			t.scanDrops.Add(1)
			return injected("connection drop mid-subscription", peer)
		}
		return nil
	})
}

// Delta implements pdms.Transport with the fault gate in front.
func (t *Transport) Delta(ctx context.Context, peer, rel string, since uint64) ([]relation.ChangeRecord, bool, error) {
	if err := t.before(ctx, "delta", peer); err != nil {
		return nil, false, err
	}
	return t.inner.Delta(ctx, peer, rel, since)
}

// Close implements pdms.Transport, closing the inner transport.
func (t *Transport) Close() error { return t.inner.Close() }
