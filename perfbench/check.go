package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"

	"aq2pnn/internal/engine"
	"aq2pnn/internal/nn"
)

// verdict collects the correctness findings of a run: every inference
// attempted, every one that failed a check, and what went wrong.
type verdict struct {
	attempted, failed int
	problems          []string
}

func (v *verdict) fail(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

func (v *verdict) ok() bool { return v.failed == 0 && len(v.problems) == 0 }

// checkSamples holds every measured inference against the plaintext
// model and the wire contract: logits within the truncation-noise bound
// of nn.Model.Forward in ring mode, the same class as the plaintext
// argmax, online bytes and
// rounds identical for every inference, and the probe's view of the wire
// equal to the engine's own Result.Online.
func checkSamples(v *verdict, m *nn.Model, samples []sample, muxed bool) {
	var prefix uint64
	if muxed {
		prefix = 1
	}
	for _, s := range samples {
		v.attempted++
		bad := func(format string, args ...any) {
			v.failed++
			v.fail("client %d inference %d: "+format, append([]any{s.client, s.seq}, args...)...)
		}
		want, err := m.Forward(s.x, nn.ForwardOptions{Mode: nn.Ring, Carrier: s.res.Carrier})
		tol, berr := logitBound(m, s.x)
		switch {
		case err != nil || berr != nil:
			bad("plaintext forward: %v", errors.Join(err, berr))
		case len(want) != len(s.res.Logits):
			bad("%d logits, plaintext has %d", len(s.res.Logits), len(want))
		case maxAbsDiff(want, s.res.Logits) > tol:
			bad("logits %v differ from plaintext %v by more than %d", s.res.Logits, want, tol)
		case !classOK(want, argmax(s.res.Logits), tol):
			bad("class %d, plaintext argmax %d (logits %v)", argmax(s.res.Logits), argmax(want), want)
		case s.res.Online != samples[0].res.Online:
			bad("online %v differs from the first inference's %v", s.res.Online, samples[0].res.Online)
		case !s.probe.matches(s.res.Online, prefix) && !(muxed && s.probe.closeControl(s.res.Online)):
			bad("probe saw %d/%d frames, %d/%d bytes; engine reports %v",
				s.probe.FramesSent, s.probe.FramesRecv, s.probe.BytesSent, s.probe.BytesRecv, s.res.Online)
		}
	}
}

func maxAbsDiff(a, b []int64) int64 {
	var d int64
	for i := range a {
		d = max(d, a[i]-b[i], b[i]-a[i])
	}
	return d
}

// classOK reports whether class is the plaintext argmax. Where the
// plaintext's lead over a runner-up is within twice the logit tolerance,
// the tolerated truncation noise may legitimately swap the two, so either
// is accepted; everywhere else the class must be the argmax.
func classOK(want []int64, class int, tol int64) bool {
	return want[class] >= want[argmax(want)]-2*tol
}

func argmax(v []int64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// leading returns client 0's first n inferences in order.
func leading(samples []sample, n int) []sample {
	var out []sample
	for _, s := range samples {
		if s.client == 0 && s.seq < n {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b sample) int { return a.seq - b.seq })
	return out
}

// digest is a SHA-256 over client 0's leading logits: equal seeds must
// give equal digests, run after run and, on the direct micro workloads,
// warm and cold alike.
func digest(samples []sample) string {
	h := sha256.New()
	var buf [8]byte
	for _, s := range samples {
		for _, l := range s.res.Logits {
			binary.LittleEndian.PutUint64(buf[:], uint64(l))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// replay re-runs lead — the run's leading inferences — on a fresh stack
// with the preprocessing bank in the other mode (a warm run replays cold,
// a cold run replays from a bank) and demands bit-identical logits.
func replay(ctx context.Context, v *verdict, w workload, seed uint64, m *nn.Model, lead []sample) error {
	cfg := options(seed)
	if !w.warm {
		cfg.BankDepth = len(lead)
	}
	st, err := startStack(m, options(seed), 1, seed)
	if err != nil {
		return err
	}
	s, err := engine.NewClient(st.dialer(&probe{}), cfg).OpenSession(ctx, m)
	if err != nil {
		return errors.Join(fmt.Errorf("replay: opening session: %w", err), st.stop())
	}
	if cfg.BankDepth > 0 && (!s.WarmupPreproc(len(lead)) || !s.DrainPreproc()) {
		err = errors.New("replay: preprocessing plane died during prefill")
	}
	for _, want := range lead {
		if err != nil {
			break
		}
		var res *engine.Result
		if res, err = s.Infer(ctx, want.x); err != nil {
			err = fmt.Errorf("replay inference %d: %w", want.seq, err)
			break
		}
		v.attempted++
		if !slices.Equal(res.Logits, want.res.Logits) {
			v.failed++
			v.fail("replay inference %d: logits %v, the run revealed %v", want.seq, res.Logits, want.res.Logits)
		}
	}
	_ = s.Close()
	return errors.Join(err, st.stop())
}
