package pdms

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/relation"
)

func TestBackoffGrowsAndCaps(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := p.Backoff(i+1, nil); got != w*time.Millisecond { // nil rnd: no jitter
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestBackoffJitterStaysInRange(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		d := p.Backoff(1, rnd)
		if d < 50*time.Millisecond || d > 100*time.Millisecond {
			t.Fatalf("jittered delay %v outside [50ms, 100ms]", d)
		}
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("read tcp: connection reset"), true},
		{fmt.Errorf("dial: %w", ErrPeerUnreachable), true},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{fmt.Errorf("hello: %w", ErrVersionMismatch), false},
		{fmt.Errorf("spent: %w", ErrBudgetExhausted), false},
		{&relation.WireError{Code: relation.ErrCodeUnknownPeer}, false},
		{&relation.WireError{Code: relation.ErrCodeUnknownRelation}, false},
		{&relation.WireError{Code: relation.ErrCodeBadRequest}, false},
		{&relation.WireError{Code: relation.ErrCodeVersion}, false},
		{&relation.WireError{Code: relation.ErrCodeInternal}, true},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestRetryOpRecoversFromTransientFailures(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	calls := 0
	retries, err := retryOp(context.Background(), p, newRetryBudget(p), func(context.Context) error {
		calls++
		if calls < 3 {
			return fmt.Errorf("flaky: %w", ErrPeerUnreachable)
		}
		return nil
	})
	if err != nil || calls != 3 || retries != 2 {
		t.Fatalf("retryOp: err=%v calls=%d retries=%d, want nil/3/2", err, calls, retries)
	}
}

func TestRetryOpStopsOnDeterministicError(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}
	calls := 0
	werr := &relation.WireError{Code: relation.ErrCodeUnknownRelation, Message: "no such"}
	retries, err := retryOp(context.Background(), p, newRetryBudget(p), func(context.Context) error {
		calls++
		return werr
	})
	if !errors.Is(err, werr) || calls != 1 || retries != 0 {
		t.Fatalf("deterministic error was retried: err=%v calls=%d retries=%d", err, calls, retries)
	}
}

func TestRetryOpBudgetExhaustion(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Budget: 2}
	budget := newRetryBudget(p)
	calls := 0
	_, err := retryOp(context.Background(), p, budget, func(context.Context) error {
		calls++
		return fmt.Errorf("still down: %w", ErrPeerUnreachable)
	})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("spent budget should surface ErrBudgetExhausted, got %v", err)
	}
	if calls != 3 { // first attempt + 2 budgeted retries
		t.Fatalf("calls = %d, want 3 (1 + budget of 2)", calls)
	}
	// A sibling operation drawing from the same spent pot gets no retries.
	calls = 0
	_, err = retryOp(context.Background(), p, budget, func(context.Context) error {
		calls++
		return fmt.Errorf("also down: %w", ErrPeerUnreachable)
	})
	if !errors.Is(err, ErrBudgetExhausted) || calls != 1 {
		t.Fatalf("shared budget not enforced: err=%v calls=%d", err, calls)
	}
}

func TestRetryOpHungAttemptIsRetryable(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, OpTimeout: 20 * time.Millisecond}
	calls := 0
	retries, err := retryOp(context.Background(), p, newRetryBudget(p), func(ctx context.Context) error {
		calls++
		<-ctx.Done() // a black-holed peer: the attempt only ends at OpTimeout
		return ctx.Err()
	})
	if calls != 2 || retries != 1 {
		t.Fatalf("hung attempt not retried: calls=%d retries=%d", calls, retries)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("exhausted hang should report the timeout, got %v", err)
	}
}

func TestRetryOpParentCancellationIsTerminal(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	_, err := retryOp(ctx, p, newRetryBudget(p), func(context.Context) error {
		calls++
		cancel() // the caller goes away mid-attempt
		return fmt.Errorf("interrupted: %w", ErrPeerUnreachable)
	})
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("parent cancellation should stop retries: err=%v calls=%d", err, calls)
	}
}
