package engine

import (
	"errors"
	"fmt"
	"time"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/parallel"
	"aq2pnn/internal/preproc"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

// provideConn dispatches one accepted connection. The provider receives
// the client's hello first — it names the model, so the provider cannot
// assemble its own hello before reading it — then answers with its view
// and branches on the session flag. Two flags are adopted from the client
// rather than checked: class-only reveal (what the user learns is the
// user's knob) and session mode.
func provideConn(conn transport.Conn, reg *Registry, cfg Options) error {
	if to := cfg.handshakeTimeout(); to > 0 {
		transport.SetRecvDeadline(conn, time.Now().Add(to))
	}
	p, err := conn.Recv()
	transport.SetRecvDeadline(conn, time.Time{})
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
	m := reg.Lookup(peer.Model)
	scfg := cfg
	scfg.RevealClassOnly = peer.Flags&flagClassOnly != 0
	var mine sessionHello
	if m != nil {
		mine = helloFor(roleProvider, m, scfg.Carrier(m), scfg)
		mine.Flags |= peer.Flags & (flagSession | flagPreproc)
	} else {
		// Unknown model: answer with the peer's own parameters under a
		// zero fingerprint, so the client fails with the same typed
		// "model fingerprint" mismatch instead of hanging or seeing a
		// spurious secondary mismatch.
		mine = peer
		mine.Role = roleProvider
		mine.Model = 0
	}
	if err := conn.Send(mine.encode()); err != nil {
		return fmt.Errorf("engine: sending session hello: %w", err)
	}
	var herr error
	if m == nil {
		herr = &HandshakeError{Field: "model fingerprint", Local: 0, Peer: peer.Model}
	} else {
		herr = checkHello(mine, peer)
	}
	if herr != nil {
		if peer.Flags&flagSession != 0 {
			// Read the attach request pipelined behind the hello: closing
			// over it would reset the connection, which can destroy our
			// hello before the client reads the typed mismatch.
			_, _ = recvOpening(conn, attachLen)
		}
		return herr
	}
	if peer.Flags&flagSession != 0 {
		return provideSession(conn, reg, m, scfg, peer.Flags&flagPreproc != 0)
	}
	return runProvider(conn, m, scfg.Carrier(m), scfg, nil)
}

// provideSession runs the provider half of a persistent session: the
// attach/resume exchange, at most one setup phase, then the steady-state
// inference loop. On a transport fault past setup the prepared state is
// parked under the session token so the client's re-attach skips setup.
// With withPreproc (the client's flagPreproc, adopted) the connection is
// multiplexed after the attach exchange and a background filler serves
// the fill subprotocol, committing each demanded seq's kit to a store the
// warm inference requests consume from.
func provideSession(conn transport.Conn, reg *Registry, m *nn.Model, cfg Options, withPreproc bool) error {
	r := cfg.Carrier(m)
	frame, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("engine: receiving session attach: %w", err)
	}
	req, err := decodeAttach(attachReqMagic, frame)
	if err != nil {
		return err
	}
	var st *sessionState
	token := req.token
	resumed := false
	if req.flag {
		if parked, ok := reg.take(req.token); ok && parked.model == m && parked.r == r {
			st, resumed = parked, true
		}
	}
	if !resumed {
		if req.flag && req.token != (SessionToken{}) {
			// The resume missed: expired, evicted, a provider restart, or —
			// behind a gateway — a failover onto a backend that never held
			// the state. Adopt the client's token instead of minting: every
			// session seed derives from (Seed, token), so the fresh setup
			// below reproduces exactly the transcript the original session
			// ran, which is what makes a failed-over inference bit-identical
			// (faithful truncation's ±1 LSB depends on the concrete share
			// values, hence on the B-mask stream, hence on the token).
			// Uniqueness is preserved — the token was minted by a Registry
			// or gateway in the first place; the client merely echoes it,
			// and take() above already claimed any parked state it named.
			telemetry.Count("aq2pnn_sessions_attach_miss_total", 1)
		} else {
			// Fresh open: mint a new token so a stale one can never alias a
			// live session.
			token = reg.nextToken()
		}
	}
	if err := conn.Send(encodeAttach(attachRespMagic, attachFrame{flag: resumed, token: token})); err != nil {
		return fmt.Errorf("engine: sending session attach: %w", err)
	}
	var pconn transport.Conn
	if withPreproc {
		// Mirror of the client's mux install point: everything past the
		// attach exchange rides the mux.
		conn, pconn = transport.NewMux(conn)
	}
	if !resumed {
		st, err = providerOpen(conn, reg, m, r, cfg, token)
		if err != nil {
			return err
		}
	}
	var store *preproc.Store
	if pconn != nil {
		pc := wrapPreprocConn(1, pconn)
		// The store cap is the structural bound (MaxPending), not the
		// provider's own bank-depth knob: pacing is the client's job (its
		// watermark), the cap only defends against a client that demands
		// without consuming.
		store = preproc.NewStore(preproc.MaxDepth)
		gen := preprocGen(pc, 1, cfg, r, preprocLayers(m), st.bShares, parallel.New(cfg.FillWorkers))
		fillDone := make(chan struct{})
		go func() {
			defer close(fillDone)
			// Filler death only degrades the plane: the client's side dies
			// symmetrically (the substream closes) and falls back to cold
			// inline generation on the main stream.
			_ = preproc.FillProvider(preproc.Filler{
				Conn: pc, Trace: cfg.Trace, Root: "provider.preproc.fill", Gen: gen,
			}, store)
		}()
		defer func() {
			// Tear the whole mux down before joining the filler: a filler
			// parked mid-read on a peer that will make no more progress
			// (fault or hostile stall) is unblocked by the inner close, so
			// the session goroutine never leaks.
			conn.Close()
			pc.Close()
			<-fillDone
		}()
	}
	// Steady state: each inference request binds a fresh deterministic
	// context to the prepared state. Nothing from the setup phase crosses
	// the wire again.
	for {
		seq, warm, end, err := recvSessionReq(conn)
		if err != nil {
			if transport.IsTransient(err) {
				reg.park(token, st)
			}
			return fmt.Errorf("engine: receiving session request: %w", err)
		}
		if end {
			return nil
		}
		var kit *preproc.Kit
		if warm {
			// The fill subprotocol's ack ordering guarantees every seq the
			// client committed is already in the store, so a warm request
			// that misses is a protocol violation, not a race.
			if store == nil {
				return sessionError(seq, fmt.Errorf("engine: warm inference request without a negotiated preprocessing plane"))
			}
			if kit = store.Take(seq); kit == nil {
				return sessionError(seq, fmt.Errorf("engine: warm inference request for unfilled seq %d", seq))
			}
		}
		if err := providerInfer(conn, st, cfg, seq, kit); err != nil {
			if transport.IsTransient(err) {
				reg.park(token, st)
			}
			return sessionError(seq, err)
		}
	}
}

// providerOpen runs the provider's setup half under the
// "provider.session.open" root: ship the client's (cached) weight share,
// then the interactive F openings.
func providerOpen(conn transport.Conn, reg *Registry, m *nn.Model, r ring.Ring, cfg Options, token SessionToken) (*sessionState, error) {
	shares, err := reg.sharesFor(m, r, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ctx := NewNetworkContext(1, conn, cfg)
	var st *sessionState
	err = tracePhase(cfg.Trace, ctx, "provider.session.open", func() error {
		if err := func() error {
			sp := ctx.Trace.Enter("exchange.shares")
			defer ctx.Trace.Exit(sp)
			return sendSetupBytes(conn, shares.payload)
		}(); err != nil {
			return fmt.Errorf("engine: sending weight shares: %w", err)
		}
		st, err = newSessionState(ctx, m, r, shares.ws1, sessionFamSeed(cfg, 1, token))
		return err
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// providerInfer serves one steady-state inference: receive the client's
// input share, run the online protocol over the bound state (consuming
// seq's precomputed kit when the request was warm), finish the reveal.
func providerInfer(conn transport.Conn, st *sessionState, cfg Options, seq uint32, kit *preproc.Kit) error {
	ctx, p := st.bindInfer(conn, 1, cfg, seq, kit)
	sp := sessionInferRoot(cfg.Trace, conn, "provider.session.infer", seq)
	defer sp.End()
	ctx.SetTrace(telemetry.NewScope(sp))
	x1, err := func() ([]uint64, error) {
		isp := ctx.Trace.Enter("input.share")
		defer ctx.Trace.Exit(isp)
		return transport.RecvElems(conn, st.r, st.model.InputShape().Numel())
	}()
	if err != nil {
		return fmt.Errorf("receiving input share: %w", err)
	}
	o, err := p.Infer(x1)
	if err != nil {
		return err
	}
	_, _, err = revealResult(ctx, st.r, cfg, o)
	return err
}
