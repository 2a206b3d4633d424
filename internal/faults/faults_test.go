package faults

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/pdms"
	"repro/internal/relation"
)

// stubTransport is a healthy mirror-only inner transport: State,
// Schemas and Scan succeed (Scan delivers a fixed number of
// single-tuple batches); Delta, ExecPlan and Subscribe answer with the
// typed refusals of a node that serves none of them.
type stubTransport struct {
	batches int
	closed  bool
}

func (s *stubTransport) State(ctx context.Context, peer string) (pdms.PeerState, error) {
	return pdms.PeerState{SchemaVersion: 1}, nil
}

func (s *stubTransport) Schemas(ctx context.Context, peer string) ([]relation.Schema, error) {
	return []relation.Schema{relation.NewSchema("R", relation.Attr("x"))}, nil
}

func (s *stubTransport) Scan(ctx context.Context, peer, rel string, deliver func([]relation.Tuple) error) error {
	for i := 0; i < s.batches; i++ {
		if err := deliver([]relation.Tuple{{relation.IV(int64(i))}}); err != nil {
			return err
		}
	}
	return nil
}

func (s *stubTransport) Delta(context.Context, string, string, uint64) ([]relation.ChangeRecord, bool, error) {
	return nil, false, nil
}

func (s *stubTransport) ExecPlan(context.Context, string, relation.SubPlan, func([]relation.Tuple) error) error {
	return pdms.ErrPlanUnsupported
}

func (s *stubTransport) Subscribe(context.Context, string, map[string]uint64,
	func(pdms.PeerState) error, func([]relation.ChangeRecord) error) error {
	return pdms.ErrPushUnsupported
}

func (s *stubTransport) Close() error {
	s.closed = true
	return nil
}

// stubPlanTransport extends stubTransport with plan execution: ExecPlan
// streams the same fixed single-tuple batches Scan does.
type stubPlanTransport struct{ stubTransport }

func (s *stubPlanTransport) ExecPlan(ctx context.Context, peer string, sp relation.SubPlan,
	deliver func([]relation.Tuple) error) error {
	return s.Scan(ctx, peer, "R", deliver)
}

// drive runs n State ops against tr, returning how many failed.
func drive(t *testing.T, tr pdms.Transport, n int) (failed int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if _, err := tr.State(ctx, "p"); err != nil {
			failed++
		}
	}
	return failed
}

func TestSeededScheduleIsDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, ErrorProb: 0.2, DropProb: 0.2}
	runs := make([][5]uint64, 2)
	fails := make([]int, 2)
	for r := range runs {
		ft := New(&stubTransport{}, cfg)
		fails[r] = drive(t, ft, 200)
		l, e, d, h, sd := ft.Counts()
		runs[r] = [5]uint64{l, e, d, h, sd}
	}
	if runs[0] != runs[1] || fails[0] != fails[1] {
		t.Fatalf("same seed diverged: counts %v vs %v, failures %d vs %d",
			runs[0], runs[1], fails[0], fails[1])
	}
	if runs[0][1] == 0 || runs[0][2] == 0 {
		t.Fatalf("schedule fired no faults over 200 ops: counts %v", runs[0])
	}
	// A different seed draws a different schedule.
	other := New(&stubTransport{}, Config{Seed: 43, ErrorProb: 0.2, DropProb: 0.2})
	otherFails := drive(t, other, 200)
	if otherFails == fails[0] {
		// Counts could coincide by chance on failures alone; compare the
		// full fault mix too before declaring the seeds equivalent.
		l, e, d, h, sd := other.Counts()
		if [5]uint64{l, e, d, h, sd} == runs[0] {
			t.Fatalf("different seeds produced identical schedules")
		}
	}
}

func TestInjectedFaultClassification(t *testing.T) {
	// All-drop schedule: every op must fail as a retryable,
	// unreachable-class injected fault.
	ft := New(&stubTransport{}, Config{DropProb: 1})
	_, err := ft.State(context.Background(), "p")
	if err == nil {
		t.Fatal("expected injected drop")
	}
	if !errors.Is(err, ErrInjected) || !errors.Is(err, pdms.ErrPeerUnreachable) {
		t.Fatalf("drop error %v should match ErrInjected and ErrPeerUnreachable", err)
	}
	if !pdms.Retryable(err) {
		t.Fatalf("injected drop should be retryable: %v", err)
	}

	// All-error schedule: typed internal error frames, also retryable.
	fe := New(&stubTransport{}, Config{ErrorProb: 1})
	_, err = fe.State(context.Background(), "p")
	var we *relation.WireError
	if !errors.As(err, &we) || we.Code != relation.ErrCodeInternal {
		t.Fatalf("injected error should be an internal WireError, got %v", err)
	}
	if !pdms.Retryable(err) {
		t.Fatalf("injected internal error should be retryable: %v", err)
	}
}

func TestBlackout(t *testing.T) {
	ft := New(&stubTransport{}, Config{})
	ctx := context.Background()
	if _, err := ft.State(ctx, "p"); err != nil {
		t.Fatalf("healthy transport failed: %v", err)
	}
	ft.Blackout("p", true)
	if _, err := ft.State(ctx, "p"); !errors.Is(err, pdms.ErrPeerUnreachable) {
		t.Fatalf("blacked-out peer should be unreachable, got %v", err)
	}
	if _, err := ft.Schemas(ctx, "q"); err != nil {
		t.Fatalf("blackout leaked to another peer: %v", err)
	}
	ft.Blackout("p", false)
	if _, err := ft.State(ctx, "p"); err != nil {
		t.Fatalf("peer should recover after blackout lifts: %v", err)
	}
}

func TestHangHonorsContext(t *testing.T) {
	ft := New(&stubTransport{}, Config{HangProb: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ft.State(ctx, "p")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang should end with the context, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hang outlived its context by far: %v", elapsed)
	}
}

func TestScanDropCutsMidStream(t *testing.T) {
	ft := New(&stubTransport{batches: 10}, Config{ScanDropProb: 1})
	var delivered int
	err := ft.Scan(context.Background(), "p", "R", func(b []relation.Tuple) error {
		delivered += len(b)
		return nil
	})
	if !errors.Is(err, ErrInjected) || !errors.Is(err, pdms.ErrPeerUnreachable) {
		t.Fatalf("mid-scan drop should be an injected unreachable error, got %v", err)
	}
	if delivered != 1 {
		t.Fatalf("prob-1 scan drop should cut after the first batch, delivered %d", delivered)
	}
	_, _, _, _, sd := ft.Counts()
	if sd != 1 {
		t.Fatalf("scan drop counter = %d, want 1", sd)
	}
}

func TestExecPlanDropCutsMidStream(t *testing.T) {
	// A prob-1 per-batch drop cuts a shipped-plan stream after its first
	// batch, typed exactly like a mid-scan cut.
	ft := New(&stubPlanTransport{stubTransport{batches: 10}}, Config{ScanDropProb: 1})
	var delivered int
	err := ft.ExecPlan(context.Background(), "p", relation.SubPlan{}, func(b []relation.Tuple) error {
		delivered += len(b)
		return nil
	})
	if !errors.Is(err, ErrInjected) || !errors.Is(err, pdms.ErrPeerUnreachable) {
		t.Fatalf("mid-plan drop should be an injected unreachable error, got %v", err)
	}
	if errors.Is(err, pdms.ErrPlanUnsupported) {
		t.Fatalf("mid-plan drop %v must not look like a clean mirror fallback", err)
	}
	if delivered != 1 {
		t.Fatalf("prob-1 plan drop should cut after the first batch, delivered %d", delivered)
	}
	_, _, _, _, sd := ft.Counts()
	if sd != 1 {
		t.Fatalf("scan-drop counter = %d, want 1", sd)
	}
}

func TestExecPlanScanOnlyInnerFallsBackTyped(t *testing.T) {
	// What the inner node refuses is its answer, not the decorator's:
	// past the gate, each typed refusal is forwarded untouched, so the
	// wrapped stack falls back exactly like the undecorated one.
	ft := New(&stubTransport{batches: 1}, Config{})
	ctx := context.Background()
	err := ft.ExecPlan(ctx, "p", relation.SubPlan{}, func([]relation.Tuple) error { return nil })
	if !errors.Is(err, pdms.ErrPlanUnsupported) {
		t.Fatalf("scan-only inner: ExecPlan err = %v, want ErrPlanUnsupported", err)
	}
	if _, ok, err := ft.Delta(ctx, "p", "R", 0); ok || err != nil {
		t.Fatalf("scan-only inner: Delta ok=%v err=%v, want a clean ok=false", ok, err)
	}
	if err := ft.Subscribe(ctx, "p", nil, nil, nil); !errors.Is(err, pdms.ErrPushUnsupported) {
		t.Fatalf("scan-only inner: Subscribe err = %v, want ErrPushUnsupported", err)
	}
}

func TestLatencyDelaysButSucceeds(t *testing.T) {
	ft := New(&stubTransport{}, Config{LatencyProb: 1, MaxLatency: 2 * time.Millisecond})
	if _, err := ft.State(context.Background(), "p"); err != nil {
		t.Fatalf("latency-only fault mix should still succeed: %v", err)
	}
	l, _, _, _, _ := ft.Counts()
	if l != 1 {
		t.Fatalf("latency counter = %d, want 1", l)
	}
}

func TestTransportCloseReachesInner(t *testing.T) {
	inner := &stubTransport{}
	ft := New(inner, Config{})
	if err := ft.Close(); err != nil || !inner.closed {
		t.Fatalf("Close should reach the inner transport (err=%v closed=%v)", err, inner.closed)
	}
}

// echoServer accepts one connection and writes payload to it, then
// holds the connection open until the listener closes.
func echoServer(t *testing.T, payload []byte) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				c.Write(payload)
				// Hold until the peer hangs up.
				buf := make([]byte, 1)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); <-done }
}

func TestProxyResponseLimitCutsMidStream(t *testing.T) {
	payload := make([]byte, 1024)
	addr, stop := echoServer(t, payload)
	defer stop()

	p, err := NewProxy(addr, ProxyConfig{ResponseLimit: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := 0
	buf := make([]byte, 256)
	for {
		n, err := c.Read(buf)
		got += n
		if err != nil {
			break
		}
	}
	if got != 100 {
		t.Fatalf("byte-limited proxy relayed %d bytes, want exactly 100", got)
	}
}

func TestProxyMuteNeverAnswers(t *testing.T) {
	addr, stop := echoServer(t, []byte("hello"))
	defer stop()

	p, err := NewProxy(addr, ProxyConfig{Mute: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("anyone home?"))
	c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 16)
	if n, err := c.Read(buf); err == nil {
		t.Fatalf("muted proxy answered with %d bytes", n)
	}
}

func TestProxyTransparentRelay(t *testing.T) {
	addr, stop := echoServer(t, []byte("hello"))
	defer stop()

	p, err := NewProxy(addr, ProxyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 5)
	if _, err := c.Read(buf); err != nil || string(buf) != "hello" {
		t.Fatalf("transparent relay: read %q, err %v", buf, err)
	}
}
