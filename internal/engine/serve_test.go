package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/transport"
)

func testCfg() Options {
	return Options{CarrierBits: 20, Seed: 4, Group: ot.TestGroup()}
}

func serveOnce(t *testing.T, ctx context.Context, cfg Options, m *nn.Model, sessions int, onSession func(error)) (addr string, done chan error) {
	t.Helper()
	l, err := transport.NewListener("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	done = make(chan error, 1)
	go func() { done <- ServeTCP(ctx, l, m, cfg, sessions, onSession) }()
	return l.Addr(), done
}

// TestServeTCPGracefulDrain cancels the server while a session is in
// flight and checks the session still completes (the drain grace covers
// it) and the server returns clean.
func TestServeTCPGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked session")
	}
	m := tinyModel(nn.PoolAvg)
	cfg := testCfg()
	cfg.DrainGrace = 30 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var sessionErrs []error
	addr, done := serveOnce(t, ctx, cfg, m, 0, func(err error) {
		mu.Lock()
		sessionErrs = append(sessionErrs, err)
		mu.Unlock()
	})
	conn, err := transport.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Cancel as soon as the session is past the handshake: the server
	// must stop accepting but let this session drain to completion.
	userDone := make(chan struct{})
	var res *Result
	var errU error
	go func() {
		defer close(userDone)
		res, errU = RunUser(conn, m, input(64), cfg)
	}()
	time.Sleep(150 * time.Millisecond)
	cancel()
	<-userDone
	if errU != nil {
		t.Fatalf("drained session failed: %v", errU)
	}
	if res == nil || len(res.Logits) == 0 {
		t.Fatal("drained session returned no logits")
	}
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown returned %v, want nil", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sessionErrs) != 1 || sessionErrs[0] != nil {
		t.Errorf("onSession observed %v, want one clean session", sessionErrs)
	}
}

// TestServeTCPAbortAfterGrace cancels with a tiny grace: the in-flight
// session must be cut off, reported as ErrSessionAborted to onSession and
// counted, while the server still shuts down clean.
func TestServeTCPAbortAfterGrace(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked session")
	}
	m := tinyModel(nn.PoolAvg)
	cfg := testCfg()
	cfg.DrainGrace = time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	aborted := make(chan error, 1)
	addr, done := serveOnce(t, ctx, cfg, m, 0, func(err error) { aborted <- err })
	conn, err := transport.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The user stalls a second before its seventh operation, so the
	// session is still in flight when the server is cancelled however
	// fast the protocol runs.
	stalled := transport.NewChaosConn(conn, transport.FaultPlan{FailAfter: -1, Stall: time.Second, StallAt: 6})
	userDone := make(chan error, 1)
	go func() {
		_, err := RunUser(stalled, m, input(64), cfg)
		userDone <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-aborted:
		if !errors.Is(err, ErrSessionAborted) {
			t.Errorf("aborted session reported %v, want ErrSessionAborted", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("session not torn down after grace expired")
	}
	if err := <-userDone; err == nil {
		t.Error("user side of an aborted session succeeded")
	}
	if err := <-done; err != nil {
		t.Errorf("shutdown with aborted sessions returned %v, want nil", err)
	}
}

// TestServeTCPSessionTimeout bounds a session that stalls mid-protocol:
// a client that handshakes and then goes silent must not pin a provider
// goroutine forever.
func TestServeTCPSessionTimeout(t *testing.T) {
	m := tinyModel(nn.PoolAvg)
	cfg := testCfg()
	cfg.SessionTimeout = 300 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	aborted := make(chan error, 1)
	addr, done := serveOnce(t, ctx, cfg, m, 1, func(err error) { aborted <- err })
	conn, err := transport.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Valid hello, then silence.
	r := cfg.Carrier(m)
	if err := exchangeHello(conn, helloFor(roleUser, m, r, cfg), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-aborted:
		if !errors.Is(err, ErrSessionAborted) {
			t.Errorf("stalled session reported %v, want ErrSessionAborted", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled session was not timed out")
	}
	if err := <-done; err == nil {
		t.Error("ServeTCP(sessions=1) swallowed the aborted session error")
	}
}

// TestServeTCPSessionPanicRecovered: a model that panics inside the
// session goroutine (truncated weight slice, the classic) must surface as
// an onSession error, not kill the process.
func TestServeTCPSessionPanicRecovered(t *testing.T) {
	m := tinyModel(nn.PoolAvg)
	// Truncate one Conv weight slice: SplitModel's transpose loop indexes
	// past the end and panics inside the session goroutine.
	for _, node := range m.Nodes {
		if c, ok := node.Op.(*nn.Conv); ok && c.W != nil {
			c.W = c.W[:len(c.W)-1]
			break
		}
	}
	cfg := testCfg()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sessionErr := make(chan error, 1)
	addr, done := serveOnce(t, ctx, cfg, m, 1, func(err error) { sessionErr <- err })
	conn, err := transport.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Complete the hello: the serving path dispatches on the client's
	// hello before touching the weights, so the panic fires only once the
	// session is past the handshake.
	if err := exchangeHello(conn, helloFor(roleUser, m, cfg.Carrier(m), cfg), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-sessionErr:
		if err == nil || !strings.Contains(err.Error(), "session panic") {
			t.Errorf("panicking session reported %v, want a recovered panic error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("panicking session never reported")
	}
	conn.Close()
	if err := <-done; err == nil || !strings.Contains(err.Error(), "session panic") {
		t.Errorf("ServeTCP returned %v, want the recovered panic", err)
	}
}

// TestRunUserWithRetryRecovers is the acceptance scenario: the first
// session attempt dies from an injected transport fault during setup, the
// retry wrapper re-dials, and the second attempt reveals logits
// bit-identical to a fault-free run with the same seed.
func TestRunUserWithRetryRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked sessions")
	}
	m := tinyModel(nn.PoolAvg)
	x := input(64)
	cfg := testCfg()
	cfg.Retries = 2
	cfg.RetryBase = 10 * time.Millisecond
	// Reference: a clean run, same seed.
	_, _, want := cleanRun(t, m, x, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done := serveOnce(t, ctx, cfg, m, 0, nil)
	dials := 0
	dial := func(ctx context.Context) (transport.Conn, error) {
		conn, err := transport.DialContext(ctx, addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		dials++
		if dials == 1 {
			// First attempt: die 6 ops into the session (mid-setup).
			return transport.NewChaosConn(conn, transport.FaultPlan{FailAfter: 6}), nil
		}
		return conn, nil
	}
	res, err := RunUserWithRetry(ctx, dial, m, x, cfg)
	if err != nil {
		t.Fatalf("retry wrapper failed: %v", err)
	}
	if dials != 2 {
		t.Errorf("dialed %d times, want 2 (one failure, one recovery)", dials)
	}
	for i := range want {
		if res.Logits[i] != want[i] {
			t.Fatalf("retried logits %v, want bit-identical %v", res.Logits, want)
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("server shutdown: %v", err)
	}
}

// TestRunUserWithRetryPermanentError: a handshake mismatch must not be
// retried.
func TestRunUserWithRetryPermanentError(t *testing.T) {
	m := tinyModel(nn.PoolAvg)
	other := tinyModel(nn.PoolMax)
	cfg := testCfg()
	cfg.Retries = 5
	cfg.RetryBase = time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done := serveOnce(t, ctx, cfg, other, 0, nil)
	dials := 0
	dial := func(ctx context.Context) (transport.Conn, error) {
		dials++
		return transport.DialContext(ctx, addr, 5*time.Second)
	}
	_, err := RunUserWithRetry(ctx, dial, m, input(64), cfg)
	var he *HandshakeError
	if !errors.As(err, &he) {
		t.Fatalf("got %v, want *HandshakeError", err)
	}
	if dials != 1 {
		t.Errorf("permanent error retried: %d dials", dials)
	}
	cancel()
	<-done
}

// TestRunUserWithRetryExhaustsBudget: a server that is simply absent
// yields a transient error after Retries+1 attempts.
func TestRunUserWithRetryExhaustsBudget(t *testing.T) {
	cfg := testCfg()
	cfg.Retries = 2
	cfg.RetryBase = time.Millisecond
	m := tinyModel(nn.PoolAvg)
	dials := 0
	dial := func(ctx context.Context) (transport.Conn, error) {
		dials++
		return nil, transport.ErrInjected
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunUserWithRetry(ctx, dial, m, input(64), cfg)
	if err == nil || !errors.Is(err, transport.ErrInjected) {
		t.Fatalf("got %v, want the final attempt's ErrInjected", err)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error %v does not report the attempt budget", err)
	}
	if dials != 3 {
		t.Errorf("made %d attempts, want 3", dials)
	}
}
