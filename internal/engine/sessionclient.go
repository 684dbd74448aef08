package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/parallel"
	"aq2pnn/internal/preproc"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/share"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

// Client opens persistent inference sessions against a serving provider.
// It holds no connection itself — each OpenSession dials through the
// Redial, and a Session re-dials on faults — so one Client may open any
// number of concurrent sessions.
type Client struct {
	dial Redial
	cfg  Options
}

// NewClient builds a client around a dialer and the session options. The
// options must agree with the provider's (carrier, truncation, ABReLU
// width, seed): a disagreement fails every OpenSession handshake with the
// typed mismatch.
func NewClient(dial Redial, cfg Options) *Client {
	return &Client{dial: dial, cfg: cfg}
}

// Session is one persistent inference session: setup paid once at open,
// any number of Infer calls streaming over the prepared state, and
// transparent re-attachment through the resumption token when a transport
// fault cuts the connection mid-stream. A Session is not safe for
// concurrent use; open one per goroutine.
type Session struct {
	c      *Client
	m      *nn.Model
	r      ring.Ring
	conn   transport.Conn
	token  SessionToken
	st     *sessionState
	seq    uint32
	setup  transport.Stats
	closed bool
	// Preprocessing plane (BankDepth > 0): the fill substream, the kit
	// bank the background filler commits into, and the filler's exit
	// signal. All nil/zero when the plane is off.
	pconn    transport.Conn
	bank     *preproc.Bank
	fillDone chan struct{}
}

// OpenSession establishes a persistent session for the model: handshake,
// attach, weight-share exchange and the F openings, retried on transient
// failures per cfg.Retries. The returned session's Infer calls cost only
// online traffic.
func (c *Client) OpenSession(ctx context.Context, m *nn.Model) (*Session, error) {
	s := &Session{c: c, m: m, r: c.cfg.Carrier(m)}
	err := c.withRetry(ctx, func() error { return s.establish(ctx, false) })
	if err != nil {
		return nil, err
	}
	return s, nil
}

// withRetry runs op under the client's transient-retry budget, mirroring
// RunUserWithRetry's classification and backoff schedule.
func (c *Client) withRetry(ctx context.Context, op func() error) error {
	attempts := int(c.cfg.Retries) + 1
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			telemetry.Count("aq2pnn_session_retries_total", 1)
			t := time.NewTimer(transport.BackoffDelay(attempt-1, c.cfg.RetryBase, 0, c.cfg.Seed^retrySeedSalt))
			select {
			case <-ctx.Done():
				t.Stop()
				return errors.Join(ctx.Err(), lastErr)
			case <-t.C:
			}
		}
		err := op()
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return err
		}
		if !transport.IsTransient(err) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	return fmt.Errorf("engine: session failed after %d attempts: %w", attempts, lastErr)
}

// establish dials and attaches: hello with the session flag, the
// attach/resume exchange, then — unless the provider re-attached our
// token — the full setup phase under the "user.session.open" root. On
// success s.conn is live with its stats reset, so the next inference's
// traffic is measured from zero.
func (s *Session) establish(ctx context.Context, resume bool) error {
	conn, err := s.c.dial(ctx)
	if err != nil {
		return err
	}
	cfg := s.c.cfg
	ok := false
	defer func() {
		if !ok {
			conn.Close()
		}
	}()
	h := helloFor(roleUser, s.m, s.r, cfg)
	h.Flags |= flagSession
	if cfg.preprocOn() {
		h.Flags |= flagPreproc
	}
	// The hello and the attach request are pipelined before waiting for
	// either answer. The provider consumes them in order regardless, and
	// a routing tier (internal/gateway) must see both frames before it
	// can pick a backend — the attach token is half the routing key, and
	// the gateway sends nothing of its own, so waiting for the provider
	// hello here would deadlock the intake.
	if err := conn.Send(h.encode()); err != nil {
		return openingSendError(conn, h, "hello", err)
	}
	if err := conn.Send(encodeAttach(attachReqMagic, attachFrame{flag: resume, token: s.token})); err != nil {
		return openingSendError(conn, h, "attach", err)
	}
	// The handshake deadline spans both answers: a peer (or proxy) that
	// accepts the frames then stalls fails fast, typed.
	if to := cfg.handshakeTimeout(); to > 0 && transport.SetRecvDeadline(conn, time.Now().Add(to)) {
		defer transport.SetRecvDeadline(conn, time.Time{})
	}
	p, err := conn.Recv()
	if err != nil {
		if errors.Is(err, transport.ErrIdleTimeout) {
			return &HandshakeError{Field: "hello read", Err: err}
		}
		return fmt.Errorf("engine: receiving session hello: %w", err)
	}
	peer, err := decodeHello(p)
	if err != nil {
		return err
	}
	if err := checkHello(h, peer); err != nil {
		return err
	}
	frame, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("engine: receiving session attach: %w", err)
	}
	resp, err := decodeAttach(attachRespMagic, frame)
	if err != nil {
		return err
	}
	s.token = resp.token
	// With the preprocessing plane negotiated, every frame past the attach
	// exchange rides the mux: the setup and steady-state protocol on the
	// main substream, the fill subprotocol on the preprocessing substream.
	// The provider installs its mux at the same point.
	raw := conn
	var pconn transport.Conn
	if cfg.preprocOn() {
		conn, pconn = transport.NewMux(conn)
	}
	if resp.flag && resume {
		// Re-attached: the provider restored our parked peer state, and
		// our own prepared state is still in hand — no setup traffic.
		telemetry.Count("aq2pnn_sessions_reattached_total", 1)
	} else {
		// Fresh setup (first open, or the token missed — expired, evicted
		// or a restarted provider — and the provider fell back to a fresh
		// session under a new token).
		nctx := NewNetworkContext(0, conn, cfg)
		var st *sessionState
		if err := tracePhase(cfg.Trace, nctx, "user.session.open", func() error {
			var wp *wirePayload
			if err := func() error {
				sp := nctx.Trace.Enter("exchange.shares")
				defer nctx.Trace.Exit(sp)
				var err error
				if wp, err = recvShares(conn, s.r.Bytes()); err != nil {
					return fmt.Errorf("engine: receiving weight shares: %w", err)
				}
				return validateWirePayload(s.m, wp)
			}(); err != nil {
				return err
			}
			var err error
			st, err = newSessionState(nctx, s.m, s.r, &WeightShares{W: wp.W, Bias: wp.Bias},
				sessionFamSeed(cfg, 0, s.token))
			return err
		}); err != nil {
			return err
		}
		s.st = st
	}
	// Setup traffic is measured on the raw dialed connection (it includes
	// the hello/attach frames and, under the mux, the stream prefixes);
	// online traffic is measured on the main substream, whose per-stream
	// accounting excludes the fill subprotocol running beside it.
	s.setup.Add(raw.Stats())
	raw.ResetStats()
	conn.ResetStats()
	s.conn = conn
	ok = true
	if pconn != nil {
		s.startFill(pconn)
	}
	return nil
}

// startFill launches the background filler over the preprocessing
// substream: a bank sized by the knobs, starting at the next seq this
// session will run, and a generator replaying the cold path's per-seq
// derivations (see preprocGen). The filler owns pconn; teardownPreproc
// joins it.
func (s *Session) startFill(pconn transport.Conn) {
	cfg := s.c.cfg
	pc := wrapPreprocConn(0, pconn)
	bank := preproc.NewBank(s.seq, cfg.BankDepth, cfg.fillWatermark())
	gen := preprocGen(pc, 0, cfg, s.r, preprocLayers(s.m), s.st.bShares, parallel.New(cfg.FillWorkers))
	done := make(chan struct{})
	s.pconn, s.bank, s.fillDone = pc, bank, done
	go func() {
		defer close(done)
		// A filler failure only degrades: it marks the bank dead, after
		// which every Take misses and the online path generates inline.
		_ = preproc.FillClient(preproc.Filler{
			Conn: pc, Trace: cfg.Trace, Root: "user.preproc.fill", Gen: gen,
		}, bank)
	}()
}

// teardownPreproc stops the fill plane and joins the filler: the bank
// stops handing out seqs, the substream closes (the close control lets
// the provider's filler exit cleanly; a filler blocked mid-exchange is
// unblocked by the peer's symmetric close or by closeMain below), and the
// filler goroutine is awaited — no leak under any exit path. closeMain
// additionally tears down the whole mux first, which force-unblocks a
// filler parked on a connection that will make no more progress (the
// fault path, where the main conn is being abandoned anyway).
func (s *Session) teardownPreproc(closeMain bool) {
	if s.fillDone == nil {
		return
	}
	s.bank.Stop()
	if closeMain && s.conn != nil {
		s.conn.Close()
	}
	s.pconn.Close()
	<-s.fillDone
	s.pconn, s.bank, s.fillDone = nil, nil, nil
}

// Infer runs one secure inference over the session. A transiently failed
// attempt re-dials and re-attaches through the resumption token (falling
// back to a fresh setup if the provider no longer holds the state) and
// replays the same seq; the derived transcript is deterministic, so the
// retried reveal is bit-identical to what the failed attempt would have
// produced. The result's Online stats are this inference's exact wire
// cost; its Setup stats are zero — session setup is reported once by
// SetupStats.
func (s *Session) Infer(ctx context.Context, x []int64) (*Result, error) {
	if s.closed {
		return nil, fmt.Errorf("engine: session is closed")
	}
	if len(x) != s.m.InputShape().Numel() {
		return nil, fmt.Errorf("engine: input length %d, want %d", len(x), s.m.InputShape().Numel())
	}
	var res *Result
	err := s.c.withRetry(ctx, func() error {
		if s.conn == nil {
			if err := s.establish(ctx, s.st != nil); err != nil {
				return err
			}
		}
		r, err := s.inferAttempt(x)
		if err != nil {
			s.teardownPreproc(true)
			if s.conn != nil {
				s.conn.Close()
				s.conn = nil
			}
			return err
		}
		res = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.seq++
	return res, nil
}

// InferBatch streams a batch of inputs over the session, one inference
// each, stopping at the first failure.
func (s *Session) InferBatch(ctx context.Context, xs [][]int64) ([]*Result, error) {
	out := make([]*Result, 0, len(xs))
	for i, x := range xs {
		res, err := s.Infer(ctx, x)
		if err != nil {
			return out, fmt.Errorf("engine: batch input %d: %w", i, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// inferAttempt runs inference s.seq over the live connection.
func (s *Session) inferAttempt(x []int64) (*Result, error) {
	cfg := s.c.cfg
	seq := s.seq
	conn := s.conn
	if cfg.SessionTimeout > 0 && transport.SetRecvDeadline(conn, time.Now().Add(cfg.SessionTimeout)) {
		defer transport.SetRecvDeadline(conn, time.Time{})
	}
	// The warm path consumes seq's precomputed kit; a missed Take (the
	// plane died, or was never on) degrades to inline generation with
	// byte-identical logits. The kit is taken before the infer root opens
	// so the fill wait, when any, is not attributed to the online span.
	var kit *preproc.Kit
	if s.bank != nil {
		kit = s.bank.Take(seq)
		if kit == nil {
			telemetry.Count("aq2pnn_preproc_starvation_total", 1)
		}
	}
	icfg := inferOptions(cfg, seq)
	nctx, p := s.st.bindInfer(conn, 0, cfg, seq, kit)
	var profile []OpProfile
	p.Profile = &profile
	var logits []int64
	class := -1
	err := func() error {
		sp := sessionInferRoot(cfg.Trace, conn, "user.session.infer", seq)
		defer sp.End()
		nctx.SetTrace(telemetry.NewScope(sp))
		var x0 []uint64
		if err := func() error {
			isp := nctx.Trace.Enter("input.share")
			defer nctx.Trace.Exit(isp)
			if err := conn.Send(encodeInferReq(seq, kit != nil)); err != nil {
				return fmt.Errorf("sending inference request: %w", err)
			}
			// The input split PRG derives from the per-inference seed, so a
			// replayed seq re-derives the identical shares — a requirement
			// for bit-identical resumption under faithful truncation, whose
			// ±1 LSB depends on the concrete share values.
			g := prg.NewSeeded(saltedSeed(icfg.Seed, 0x1272C0DE))
			var x1 []uint64
			x0, x1 = share.SplitVec(g, s.r, s.r.FromInts(x))
			if err := transport.SendElems(conn, s.r, x1); err != nil {
				return fmt.Errorf("sending input share: %w", err)
			}
			return nil
		}(); err != nil {
			return err
		}
		o, err := p.Infer(x0)
		if err != nil {
			return err
		}
		logits, class, err = revealResult(nctx, s.r, cfg, o)
		return err
	}()
	if err != nil {
		return nil, sessionError(seq, err)
	}
	online := conn.Stats()
	conn.ResetStats()
	return &Result{Logits: logits, Class: class, Online: online, PerOp: profile, Carrier: s.r}, nil
}

// Close ends the session: the end frame tells the provider to drop its
// state (a cleanly closed session is not resumable), then the connection
// closes. Closing an already-closed or faulted session is a no-op.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.conn == nil {
		return nil
	}
	// Stop the fill plane first: the filler drains its in-flight exchange
	// (or fails fast on the closed substream) before the end frame tells
	// the provider to drop the session.
	s.teardownPreproc(false)
	//lint:allow sendcheck best-effort end frame on close; a peer that already hung up simply misses it
	_ = s.conn.Send(encodeEnd())
	err := s.conn.Close()
	s.conn = nil
	return err
}

// WarmupPreproc blocks until the preprocessing bank holds at least n kits
// (clamped to the fill-ahead watermark) and reports whether the level was
// reached — false when the plane is off or died first. Benchmarks use it
// to move the initial fill wait off the measured online path.
func (s *Session) WarmupPreproc(n int) bool {
	if s.bank == nil {
		return false
	}
	return s.bank.WaitFill(n)
}

// DrainPreproc quiesces the fill plane without discarding what it
// produced: the filler is stopped and joined and the fill substream
// closes, but the kits already banked keep serving subsequent inferences,
// which degrade to inline generation — bit-identically — once the bank
// runs dry. Use it before a latency-critical stretch that should consume,
// not generate; benchmarks use it to measure warm online latency with no
// background fill competing for the same cores. Reports whether a live
// plane was drained. A faulted-and-resumed session restarts a fresh
// plane, discarding the drained bank's leftovers.
func (s *Session) DrainPreproc() bool {
	if s.fillDone == nil {
		return false
	}
	// teardownPreproc forgets the bank along with the filler; a drain
	// keeps it, stopped, so Take serves the banked kits until they run out.
	bank := s.bank
	s.teardownPreproc(false)
	s.bank = bank
	return true
}

// SetupStats reports the session's cumulative setup traffic: the open
// (handshake, attach, weight shares, F openings) plus any re-attach or
// re-setup exchanges after faults. Steady-state inferences add nothing
// here — their cost is each Result's Online stats.
func (s *Session) SetupStats() transport.Stats { return s.setup }

// Token returns the session's resumption token (the provider-issued
// identity its parked state is keyed by).
func (s *Session) Token() SessionToken { return s.token }
