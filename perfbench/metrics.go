package main

import (
	"slices"
	"time"
)

// metric names one reported figure and its unit.
type metric struct{ name, unit string }

// endToEnd is what a user of the system sees, reported by every untraced
// run of every workload. BENCHMARK.json lists the same names and units.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"infer_ms_p50", "ms"},
	{"infer_per_s", "1/s"},
	{"cpu_ms_per_infer", "ms"},
	{"online_bytes_per_infer", "B"},
	{"online_rounds_per_infer", "count"},
	{"setup_bytes", "B"},
	{"peak_rss_mb", "MiB"},
}

// opKinds are the node kinds whose Result.PerOp costs are reported.
var opKinds = []string{"2PC-Conv2D", "ABReLU", "2PC-MaxPool", "2PC-FC"}

// perLayer is every figure a traced run reports, grouped by module.
func perLayer() []metric {
	ms := []metric{
		{"engine.open_ms", "ms"},
		{"engine.compute_ms_per_infer", "ms"},
	}
	for _, k := range opKinds {
		p := "engine.op." + k + "."
		ms = append(ms, metric{p + "host_ms_per_infer", "ms"}, metric{p + "bytes_per_infer", "B"},
			metric{p + "rounds_per_infer", "count"})
	}
	ms = append(ms,
		metric{"transport.recv_wait_ms_per_infer", "ms"},
		metric{"transport.send_ms_per_infer", "ms"},
		metric{"transport.frames_per_infer", "count"},
		metric{"transport.errs", "count"},
		metric{"preproc.warmup_ms", "ms"},
		metric{"preproc.kit_use_frac", "frac"},
		metric{"preproc.starvations", "count"},
		metric{"preproc.fill_s_per_kit", "s"},
		metric{"preproc.fill_bytes_per_kit", "B"},
	)
	span := func(prefix string, spans []string) {
		for _, s := range spans {
			ms = append(ms, metric{prefix + s + ".calls", "count"}, metric{prefix + s + ".self_ms", "ms"},
				metric{prefix + s + ".bytes", "B"}, metric{prefix + s + ".rounds", "count"})
		}
	}
	span("trace.", inferSpans)
	span("trace.open.", openSpans)
	span("trace.fill.", fillSpans)
	self := func(prefix string, spans []string) {
		for _, s := range spans {
			ms = append(ms, metric{prefix + s + ".self_ms", "ms"})
		}
	}
	self("trace.provider.", inferSpans)
	self("trace.provider.open.", openSpans)
	self("trace.provider.fill.", providerFillSpans)
	return append(ms,
		metric{"runtime.allocs_per_infer", "count"},
		metric{"runtime.alloc_mb_per_infer", "MiB"},
		metric{"runtime.gc_cycles_per_infer", "count"},
		metric{"runtime.gc_pause_ms_per_infer", "ms"},
		metric{"gateway.open_ms", "ms"},
		metric{"gateway.sessions", "count"},
		metric{"gateway.shed", "count"},
		metric{"gateway.reroutes", "count"},
		metric{"gateway.backend_failures", "count"},
		metric{"trace.overhead_frac", "frac"},
	)
}

// metrics maps metric names to values.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// summary is the figures of one pass that the metrics derive from.
type summary struct {
	n               int // measured inferences, all clients
	p50, p90        float64
	p90ok           bool
	openMS          float64 // median wall time to open every client's session
	rssMiB          float64 // median over client 0's inferences of the peak resident set
	fillSPerKit     float64
	fillBytesPerKit float64
	online          uint64
	rounds          uint64
	kitsBanked      int
}

func summarize(w workload, p *pass) summary {
	s := summary{n: len(p.samples)}
	durs := make([]time.Duration, len(p.samples))
	for i, x := range p.samples {
		durs[i] = x.dur
	}
	s.p50 = median(durs)
	s.p90, s.p90ok = percentile(durs, 0.9)
	s.openMS = median(p.opens)
	var rss []float64
	for _, x := range p.samples {
		if x.client == 0 {
			rss = append(rss, x.rssMiB)
		}
	}
	if len(rss) > 0 {
		slices.Sort(rss)
		s.rssMiB = rss[(len(rss)+1)/2-1]
	}
	if s.n > 0 {
		s.online = p.samples[0].res.Online.TotalBytes()
		s.rounds = p.samples[0].res.Online.Rounds
	}
	if w.warm {
		s.kitsBanked = p.kits * w.clients
		s.fillSPerKit = p.prefill.Seconds() / float64(p.kits)
		s.fillBytesPerKit = float64(p.fillBytes) / float64(s.kitsBanked)
	}
	return s
}

// endToEndMetrics are the user-visible figures of an untraced pass.
func endToEndMetrics(p *pass, s summary) metrics {
	n := float64(s.n)
	return metrics{
		"setup_s":                 s.openMS/1e3 + p.prefill.Seconds(),
		"infer_ms_p50":            s.p50,
		"infer_per_s":             n / p.loop.Seconds(),
		"cpu_ms_per_infer":        ms(p.proc.CPU) / n,
		"online_bytes_per_infer":  float64(s.online),
		"online_rounds_per_infer": float64(s.rounds),
		"setup_bytes":             float64(p.setupBytes),
		"peak_rss_mb":             s.rssMiB,
	}
}

// probeMetrics are the per-layer figures measured from outside the
// program: probes on the client connections, Result.PerOp, the runtime's
// own counters and the gateway's Stats.
func probeMetrics(w workload, p *pass, s summary, out metrics) {
	n := float64(s.n)
	var compute, send, recv time.Duration
	var frames, errs uint64
	type opCost struct {
		host          time.Duration
		bytes, rounds uint64
	}
	ops := map[string]*opCost{}
	for _, k := range opKinds {
		ops[k] = &opCost{}
	}
	for _, x := range p.samples {
		compute += x.dur - x.probe.Recv
		send += x.probe.Send
		recv += x.probe.Recv
		frames += x.probe.frames()
		errs += x.probe.Errs
		for _, op := range x.res.PerOp {
			if c := ops[op.Kind]; c != nil {
				c.host += op.HostTime
				c.bytes += op.Bytes
				c.rounds += op.Rounds
			}
		}
	}
	out.set("engine.open_ms", s.openMS/float64(w.clients))
	out.set("engine.compute_ms_per_infer", ms(compute)/n)
	for k, c := range ops {
		out.set("engine.op."+k+".host_ms_per_infer", ms(c.host)/n)
		out.set("engine.op."+k+".bytes_per_infer", float64(c.bytes)/n)
		out.set("engine.op."+k+".rounds_per_infer", float64(c.rounds)/n)
	}
	out.set("transport.recv_wait_ms_per_infer", ms(recv)/n)
	out.set("transport.send_ms_per_infer", ms(send)/n)
	out.set("transport.frames_per_infer", float64(frames)/n)
	out.set("transport.errs", float64(errs))
	out.set("preproc.warmup_ms", ms(p.prefill))
	var use float64
	if s.kitsBanked > 0 {
		use = float64(s.n) / float64(s.kitsBanked)
	}
	out.set("preproc.kit_use_frac", use)
	out.set("preproc.starvations", float64(p.starved))
	out.set("preproc.fill_s_per_kit", s.fillSPerKit)
	out.set("preproc.fill_bytes_per_kit", s.fillBytesPerKit)
	out.set("runtime.allocs_per_infer", float64(p.proc.Mallocs)/n)
	out.set("runtime.alloc_mb_per_infer", float64(p.proc.AllocBytes)/(1<<20)/n)
	out.set("runtime.gc_cycles_per_infer", float64(p.proc.GCCycles)/n)
	out.set("runtime.gc_pause_ms_per_infer", ms(p.proc.GCPause)/n)
	var gwOpen float64
	if w.backends > 1 {
		gwOpen = median(p.firstFrame)
	}
	out.set("gateway.open_ms", gwOpen)
	out.set("gateway.sessions", float64(p.gw.Sessions))
	out.set("gateway.shed", float64(p.gw.Shed))
	out.set("gateway.reroutes", float64(p.gw.Reroutes))
	out.set("gateway.backend_failures", float64(p.gw.BackendFailures))
}
