package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"aq2pnn/internal/engine"
	"aq2pnn/internal/gateway"
	"aq2pnn/internal/nn"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/telemetry"
)

// workload is one closed-loop traffic shape over the real session stack:
// `clients` clients, each holding one session and sending its next
// inference when the previous one returns.
type workload struct {
	name     string
	model    string
	warm     bool // preprocessing bank pre-filled, then drained
	clients  int
	backends int // providers; more than one puts a gateway in front
	// kits returns how many kits each client banks for a run of the
	// given length: the most inferences the timed loop may run.
	kits func(seconds int) int
	// opens is how many times set-up is timed for the set-up median:
	// most where set-up is a sub-millisecond open (micro-cold), fewest
	// where a prefill dominates it.
	opens int
	// replay re-runs the first inferences of the run in the other bank
	// mode on a fresh stack and demands bit-identical logits.
	replay bool
}

var workloads = []workload{
	{name: "micro-warm", model: "micro", warm: true, clients: 1, backends: 1,
		kits: perSecond(12), opens: 9, replay: true},
	{name: "micro-cold", model: "micro", clients: 1, backends: 1, opens: 25, replay: true},
	{name: "lenet5-warm", model: "lenet5", warm: true, clients: 1, backends: 1,
		kits: func(int) int { return 3 }, opens: 3},
	{name: "micro-fleet", model: "micro", warm: true, clients: 2, backends: 2,
		kits: perSecond(8), opens: 5},
}

func perSecond(n int) func(int) int { return func(s int) int { return n * s } }

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	// carrierBits is the ring all workloads run on, as cmd/sessionbench
	// measures.
	carrierBits = 16
	// replayN is how many leading inferences of client 0 the logits
	// digest and the replay cover.
	replayN = 3
)

// derive splits the workload seed into independent streams with the
// splitmix64 finalizer.
func derive(seed, stream uint64) uint64 {
	x := seed ^ stream*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// options is the engine configuration both parties share for a seed.
func options(seed uint64) engine.Options {
	return engine.Options{CarrierBits: carrierBits, Seed: derive(seed, 2), Group: ot.TestGroup()}
}

func model(w workload, seed uint64) (*nn.Model, error) {
	return nn.ByName(w.model, nn.ZooConfig{Seed: derive(seed, 1)})
}

// sample is one measured inference.
type sample struct {
	client, seq int
	x           []int64
	res         *engine.Result
	dur         time.Duration
	probe       probeCounts
	// rssMiB is the process's peak resident set while the inference ran,
	// sampled on client 0 only: the high-water mark is process-wide.
	rssMiB float64
}

// pass is what one measured run of a workload observed.
type pass struct {
	opens      []time.Duration // wall time to open every client's session, per repetition
	prefill    time.Duration   // wall time to bank every client's kits
	kits       int             // kits banked per client
	setupBytes uint64          // per session, the engine's own ledger
	fillBytes  uint64          // wire bytes of the fill subprotocol, all clients
	firstFrame []time.Duration // per session: dial until the first frame back
	samples    []sample
	loop       time.Duration // wall time of the timed loop
	proc       procCounts    // process deltas over the timed loop
	gw         gateway.Stats
	starved    uint64 // inferences that found no banked kit (counters on)
	// Traces of both parties, when the pass ran traced.
	user, provider *telemetry.Tracer
}

// runPass measures one workload run. With traced set, both parties carry
// the program's own tracer; with counters set, the program's telemetry
// counters are on for the run.
func runPass(ctx context.Context, w workload, seed uint64, seconds int, traced, counters bool) (*pass, error) {
	m, err := model(w, seed)
	if err != nil {
		return nil, err
	}
	p := &pass{}
	if w.warm {
		p.kits = w.kits(seconds)
		if traced {
			// The span table needs few inferences, and a LeNet5 kit takes
			// seconds to bank; a third of the kits keeps a traced run
			// within its time limit.
			p.kits = max(1, p.kits/3)
		}
	}
	scfg := options(seed)
	ccfg := scfg
	ccfg.BankDepth = p.kits
	if traced {
		p.user, p.provider = telemetry.New(), telemetry.New()
		scfg.Trace, ccfg.Trace = p.provider, p.user
	}

	// Set-up repetitions on fresh, untraced stacks; the measured open
	// below is the last sample. A traced pass reports no set-up time.
	for r := 1; r < w.opens && !traced; r++ {
		st, err := startStack(m, options(seed), w.backends, seed)
		if err != nil {
			return nil, err
		}
		plain := ccfg
		plain.Trace = nil
		sess, _, d, err := openAll(ctx, st, m, plain, w.clients)
		closeAll(sess)
		if err := errors.Join(err, st.stop()); err != nil {
			return nil, fmt.Errorf("set-up repetition %d: %w", r, err)
		}
		p.opens = append(p.opens, d)
	}

	st, err := startStack(m, scfg, w.backends, seed)
	if err != nil {
		return nil, err
	}
	before := telemetry.Default().Counters()
	if counters {
		telemetry.Enable()
		defer telemetry.Disable()
	}
	sess, probes, d, err := openAll(ctx, st, m, ccfg, w.clients)
	if err != nil {
		closeAll(sess)
		return nil, errors.Join(err, st.stop())
	}
	p.opens = append(p.opens, d)
	p.setupBytes = sess[0].SetupStats().TotalBytes()
	for _, pr := range probes {
		p.firstFrame = append(p.firstFrame, pr.firstFrame())
	}
	if w.warm {
		if p.prefill, err = prefill(sess, p.kits); err != nil {
			closeAll(sess)
			return nil, errors.Join(err, st.stop())
		}
	}

	runtime.GC() // the loop starts from a collected heap
	p.loop, p.proc, p.samples, err = timedLoop(ctx, w, seed, seconds, m, sess, probes, p.kits)
	if w.warm {
		// Whatever crossed the wire besides set-up and the measured
		// inferences' online frames (one mux prefix byte each) was the
		// fill subprotocol, its close controls included.
		for i, pr := range probes {
			p.fillBytes += pr.snapshot().bytes() - sess[i].SetupStats().TotalBytes()
		}
		for _, s := range p.samples {
			o := s.res.Online
			p.fillBytes -= o.TotalBytes() + o.MsgsSent + o.MsgsRecv
		}
	}
	closeAll(sess)
	if st.gw != nil {
		p.gw = st.gw.Stats()
	}
	if err := errors.Join(err, st.stop()); err != nil {
		return nil, err
	}
	if counters {
		p.starved = telemetry.Default().Counters()["aq2pnn_preproc_starvation_total"] -
			before["aq2pnn_preproc_starvation_total"]
	}
	return p, nil
}

// openAll opens one session per client, one after the other so that
// session tokens, and with them the logits, do not depend on scheduling.
// It returns the wall time of all opens together.
func openAll(ctx context.Context, st *stack, m *nn.Model, cfg engine.Options, clients int) ([]*engine.Session, []*probe, time.Duration, error) {
	var sess []*engine.Session
	var probes []*probe
	start := time.Now()
	for c := 0; c < clients; c++ {
		pr := &probe{}
		s, err := engine.NewClient(st.dialer(pr), cfg).OpenSession(ctx, m)
		if err != nil {
			return sess, probes, 0, fmt.Errorf("client %d: opening session: %w", c, err)
		}
		sess = append(sess, s)
		probes = append(probes, pr)
	}
	return sess, probes, time.Since(start), nil
}

func closeAll(sess []*engine.Session) {
	for _, s := range sess {
		// A close error after the measured loop changes nothing measured;
		// the serving loops report real faults through stack.stop.
		_ = s.Close()
	}
}

// prefill banks n kits on every session at once, then quiesces the
// fillers so the timed loop consumes without generating. It returns the
// wall time this took.
func prefill(sess []*engine.Session, n int) (time.Duration, error) {
	start := time.Now()
	errs := make([]error, len(sess))
	var wg sync.WaitGroup
	for i, s := range sess {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !s.WarmupPreproc(n) || !s.DrainPreproc() {
				errs[i] = fmt.Errorf("client %d: preprocessing plane died during prefill", i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

// timedLoop runs every client's closed loop until `seconds` have passed
// or, on a warm workload, the client's banked kits are spent.
func timedLoop(ctx context.Context, w workload, seed uint64, seconds int, m *nn.Model,
	sess []*engine.Session, probes []*probe, kits int) (time.Duration, procCounts, []sample, error) {
	r := ring.New(carrierBits)
	deadline := time.Duration(seconds) * time.Second
	per := make([][]sample, len(sess))
	errs := make([]error, len(sess))
	loop, proc := measure(func() {
		start := time.Now()
		var wg sync.WaitGroup
		for c, s := range sess {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; (!w.warm || i < kits) && time.Since(start) < deadline; i++ {
					x, err := input(m, r, seed, c, i)
					if err != nil {
						errs[c] = err
						return
					}
					if c == 0 {
						if err := resetPeakRSS(); err != nil {
							errs[c] = err
							return
						}
					}
					pb := probes[c].snapshot()
					t0 := time.Now()
					res, err := s.Infer(ctx, x)
					d := time.Since(t0)
					if err != nil {
						errs[c] = fmt.Errorf("client %d inference %d: %w", c, i, err)
						return
					}
					smp := sample{client: c, seq: i, x: x, res: res, dur: d, probe: probes[c].snapshot().sub(pb)}
					if c == 0 {
						if smp.rssMiB, err = peakRSSMiB(); err != nil {
							errs[c] = err
							return
						}
					}
					per[c] = append(per[c], smp)
				}
			}()
		}
		wg.Wait()
	})
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return loop, proc, all, errors.Join(errs...)
}
