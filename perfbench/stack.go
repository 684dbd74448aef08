package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"aq2pnn/internal/engine"
	"aq2pnn/internal/gateway"
	"aq2pnn/internal/nn"
	"aq2pnn/internal/transport"
)

// stack is the serving side of one measured pass, in this process:
// fresh providers over loopback TCP and, for the fleet, a gateway in
// front of them. Fresh providers matter for reproducibility: a
// provider's n-th session gets its n-th token, and the token seeds the
// session's weight masks, so the first session on a fresh stack always
// reveals the same logits for the same seed.
type stack struct {
	addr   string
	gw     *gateway.Gateway
	lis    []*transport.Listener
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu   sync.Mutex
	errs []error
}

// startStack serves m with cfg from `backends` providers. With
// backends > 1 the clients dial a gateway that routes across them;
// gwSeed seeds the gateway's minted tokens.
func startStack(m *nn.Model, cfg engine.Options, backends int, gwSeed uint64) (*stack, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &stack{cancel: cancel}
	var bks []gateway.Backend
	for i := 0; i < backends; i++ {
		l, err := s.listen()
		if err != nil {
			s.stop()
			return nil, err
		}
		bks = append(bks, gateway.Backend{Name: fmt.Sprintf("b%d", i), Addr: l.Addr()})
		s.run(func() error { return engine.ServeTCP(ctx, l, m, cfg, 0, nil) })
	}
	if backends == 1 {
		s.addr = bks[0].Addr
		return s, nil
	}
	// Passive scoring only: an active prober would add traffic on its
	// own clock to a measured loop.
	gw, err := gateway.New(gateway.Config{Backends: bks, Seed: gwSeed, ProbeInterval: -1})
	if err != nil {
		s.stop()
		return nil, err
	}
	l, err := s.listen()
	if err != nil {
		s.stop()
		return nil, err
	}
	s.gw, s.addr = gw, l.Addr()
	s.run(func() error { return gw.Serve(ctx, l) })
	return s, nil
}

func (s *stack) listen() (*transport.Listener, error) {
	l, err := transport.NewListener("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	s.lis = append(s.lis, l)
	return l, nil
}

func (s *stack) run(serve func() error) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := serve(); err != nil {
			s.mu.Lock()
			s.errs = append(s.errs, err)
			s.mu.Unlock()
		}
	}()
}

// dialer returns a client dialer whose connections report into p.
func (s *stack) dialer(p *probe) engine.Redial {
	return func(ctx context.Context) (transport.Conn, error) {
		p.dialed.CompareAndSwap(0, time.Now().UnixNano())
		c, err := transport.DialContext(ctx, s.addr, 10*time.Second)
		if err != nil {
			return nil, err
		}
		return &probeConn{Conn: c, p: p}, nil
	}
}

// stop cancels every serving loop, waits for each to return, closes the
// listeners and reports what the loops failed with. Close every session
// first: cancellation tears live sessions down.
func (s *stack) stop() error {
	s.cancel()
	s.wg.Wait()
	for _, l := range s.lis {
		l.Close()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(s.errs...)
}
