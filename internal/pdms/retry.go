package pdms

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/relation"
)

// This file is the failure vocabulary and retry machinery of the
// distributed tier. Remote operations fail for two very different
// reasons — the network hiccuped (retryable) or the request is
// deterministically wrong (not) — and everything above the transport
// wants to branch on which: the retry runner re-attempts only the
// first kind, the degradation path (remote.go) converts exhausted
// retries into served-stale answers, and callers select recovery
// strategies with errors.Is on the exported sentinels below.

// ErrPeerUnreachable reports that a remote peer could not be reached:
// dialing failed, the connection died, or every retry attempt was
// spent. Wrapped errors carry the underlying cause; test with
// errors.Is.
var ErrPeerUnreachable = errors.New("pdms: peer unreachable")

// ErrVersionMismatch reports a wire-protocol version mismatch at
// handshake time — the peer is alive but speaks an incompatible
// protocol, so retrying cannot help. Test with errors.Is.
var ErrVersionMismatch = errors.New("pdms: protocol version mismatch")

// ErrBudgetExhausted reports that a request's retry budget was spent
// before its remote operations completed. The failing peer is marked
// down and probed in the background; test with errors.Is.
var ErrBudgetExhausted = errors.New("pdms: retry budget exhausted")

// RetryPolicy declares how remote operations are retried: how many
// attempts each operation gets, how the delay between them grows, how
// long one attempt may run, and how many retries one request may spend
// in total. The zero value means "one attempt, no timeout, unlimited
// budget". This is the only backoff in the distributed tier: the
// transport client re-dials a dead pooled connection once without
// sleeping and returns every other failure here, typed.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation
	// (1 = no retry). Values < 1 mean 1.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry
	// (DefaultRetryBaseDelay when zero and a retry happens).
	BaseDelay time.Duration
	// MaxDelay caps the backoff, which doubles per retry
	// (DefaultRetryMaxDelay when zero).
	MaxDelay time.Duration
	// OpTimeout bounds one attempt (0 = no per-attempt timeout). An
	// attempt that exceeds it counts as retryable — a hung peer must
	// not hang the query.
	OpTimeout time.Duration
	// Budget caps the total retries (not first attempts) one request
	// may spend across all of its remote operations; 0 = unlimited.
	// Exhaustion surfaces as ErrBudgetExhausted.
	Budget int
}

// Defaults for RetryPolicy fields left zero when a retry actually runs,
// and the share of each backoff delay that is randomized.
const (
	// DefaultRetryBaseDelay is the first backoff delay.
	DefaultRetryBaseDelay = 25 * time.Millisecond
	// DefaultRetryMaxDelay caps the exponential backoff.
	DefaultRetryMaxDelay = 1 * time.Second
	// DefaultRetryJitter is the fraction of each delay that is
	// randomized: half.
	DefaultRetryJitter = 0.5
)

// DefaultRetryPolicy is a reasonable serving-path policy: three
// attempts per op with 25ms→1s jittered exponential backoff, a 2s
// per-attempt timeout, and eight retries of total budget per request.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   DefaultRetryBaseDelay,
		MaxDelay:    DefaultRetryMaxDelay,
		OpTimeout:   2 * time.Second,
		Budget:      8,
	}
}

// attempts returns the effective per-op attempt count.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the jittered delay before retry number retry
// (1-based: the delay between attempt N and attempt N+1 is
// Backoff(N)): BaseDelay doubled per retry up to MaxDelay, then scaled
// uniformly into [d·(1−DefaultRetryJitter), d]. rnd supplies the
// jitter; nil means no jitter, so seeded callers (the fault-injection
// suites) stay deterministic.
func (p RetryPolicy) Backoff(retry int, rnd *rand.Rand) time.Duration {
	base, maxd := p.BaseDelay, p.MaxDelay
	if base <= 0 {
		base = DefaultRetryBaseDelay
	}
	if maxd <= 0 {
		maxd = DefaultRetryMaxDelay
	}
	d := float64(base)
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= float64(maxd) {
			break
		}
	}
	if d > float64(maxd) {
		d = float64(maxd)
	}
	if rnd != nil {
		d *= 1 - DefaultRetryJitter*rnd.Float64()
	}
	return time.Duration(d)
}

// Retryable classifies an error: true means the operation may succeed
// if tried again (connection drops, resets, injected chaos), false
// means the failure is deterministic (protocol errors, unknown names,
// version mismatches) or the caller is gone (context cancellation).
// Per-attempt timeouts are handled by the retry runner, which can tell
// its own deadline from the caller's.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrVersionMismatch) || errors.Is(err, ErrBudgetExhausted) {
		return false
	}
	var we *relation.WireError
	if errors.As(err, &we) {
		// A typed error frame is the server answering deterministically —
		// except ErrCodeInternal, which reports a transient serving-side
		// failure mid-response.
		return we.Code == relation.ErrCodeInternal
	}
	return true
}

// retryBudget is the per-request pot of retries a policy's Budget
// declares, shared by every remote operation of one query prepare.
// Concurrent fetch workers draw from it, hence the lock.
type retryBudget struct {
	mu        sync.Mutex
	left      int
	unlimited bool
}

// newRetryBudget sizes a budget from the policy.
func newRetryBudget(p RetryPolicy) *retryBudget {
	return &retryBudget{left: p.Budget, unlimited: p.Budget <= 0}
}

// take withdraws one retry, reporting false when the pot is empty.
func (b *retryBudget) take() bool {
	if b == nil || b.unlimited {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.left <= 0 {
		return false
	}
	b.left--
	return true
}

// retryRand guards the process-wide jitter source: retries are rare,
// so one locked source beats per-request allocation.
var (
	retryRandMu sync.Mutex
	retryRand   = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// jitterSleep sleeps for the policy's backoff before the given retry,
// honoring ctx.
func jitterSleep(ctx context.Context, p RetryPolicy, retry int) error {
	retryRandMu.Lock()
	d := p.Backoff(retry, retryRand)
	retryRandMu.Unlock()
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryOp runs op under the policy: up to MaxAttempts tries, each
// bounded by OpTimeout, with capped jittered exponential backoff
// between them, every retry drawn from the request's shared budget.
// retries reports how many retries actually ran (observability — the
// churn harness reads the aggregate counter this feeds). The returned
// error is the last attempt's, wrapped with ErrBudgetExhausted when the
// pot ran dry, and classified by the caller (remote.go wraps
// unreachable-class failures with ErrPeerUnreachable).
func retryOp(ctx context.Context, p RetryPolicy, budget *retryBudget, op func(context.Context) error) (retries int, err error) {
	attempts := p.attempts()
	for attempt := 1; ; attempt++ {
		actx, cancel := ctx, context.CancelFunc(func() {})
		if p.OpTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.OpTimeout)
		}
		err = op(actx)
		cancel()
		if err == nil {
			return retries, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			// The caller is gone; whatever the attempt saw is really that.
			return retries, cerr
		}
		// An attempt that hit its own OpTimeout deadline is a hung peer:
		// retryable even though the error reads as DeadlineExceeded.
		timedOut := p.OpTimeout > 0 && errors.Is(err, context.DeadlineExceeded)
		if !timedOut && !Retryable(err) {
			return retries, err
		}
		if attempt >= attempts {
			return retries, err
		}
		if !budget.take() {
			return retries, fmt.Errorf("%w: %d retries spent, last error: %w", ErrBudgetExhausted, retries, err)
		}
		retries++
		if serr := jitterSleep(ctx, p, attempt); serr != nil {
			return retries, serr
		}
	}
}
