package main

import (
	"slices"
	"strings"
	"time"

	"aq2pnn/internal/telemetry"
)

// Root kinds a span is attributed under, by the suffix of its root's name
// ("user.session.infer", "provider.preproc.fill", ...). Each kind has its
// own unit of normalisation: per inference, per banked kit, per open.
const (
	underInfer = "infer"
	underFill  = "fill"
	underOpen  = "open"
)

func rootKind(name string) string {
	switch {
	case strings.HasSuffix(name, ".session.infer"):
		return underInfer
	case strings.HasSuffix(name, ".preproc.fill"):
		return underFill
	case strings.HasSuffix(name, ".session.open"):
		return underOpen
	}
	return ""
}

// spanTotals is one span name's cost summed over one root kind. Bytes
// and rounds are the span's own connection counters, which include its
// children's; self time excludes the part of the span its children cover.
type spanTotals struct {
	calls         int
	self          time.Duration
	bytes, rounds uint64
}

// spanTable is a tracer's spans summed by root kind, then span name,
// with the number of roots of each kind to normalise by.
type spanTable struct {
	spans map[string]map[string]*spanTotals
	roots map[string]int
}

// tabulate sums a tracer's finished spans.
func tabulate(tr *telemetry.Tracer) spanTable {
	recs := tr.Spans()
	byID := make(map[uint64]telemetry.SpanRecord, len(recs))
	children := map[uint64][]telemetry.SpanRecord{}
	for _, r := range recs {
		byID[r.ID] = r
		if r.Parent != 0 {
			children[r.Parent] = append(children[r.Parent], r)
		}
	}
	rootOf := func(r telemetry.SpanRecord) telemetry.SpanRecord {
		for r.Parent != 0 {
			p, ok := byID[r.Parent]
			if !ok {
				break
			}
			r = p
		}
		return r
	}
	t := spanTable{spans: map[string]map[string]*spanTotals{}, roots: map[string]int{}}
	for _, r := range recs {
		if r.Parent == 0 {
			t.roots[rootKind(r.Name)]++
			continue
		}
		kind := rootKind(rootOf(r).Name)
		if t.spans[kind] == nil {
			t.spans[kind] = map[string]*spanTotals{}
		}
		st := t.spans[kind][r.Name]
		if st == nil {
			st = &spanTotals{}
			t.spans[kind][r.Name] = st
		}
		st.calls++
		st.self += selfTime(r, children[r.ID])
		if r.HasConn {
			st.bytes += r.Comm.TotalBytes()
			st.rounds += r.Comm.Rounds
		}
	}
	return t
}

// selfTime is the span's duration minus the union of its children's
// intervals, clipped to the span.
func selfTime(r telemetry.SpanRecord, kids []telemetry.SpanRecord) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, [2]time.Duration{max(k.Start, r.Start), min(k.End, r.End)})
	}
	slices.SortFunc(iv, func(a, b [2]time.Duration) int { return int(a[0] - b[0]) })
	covered := time.Duration(0)
	var cur [2]time.Duration
	for i, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		if i == 0 || v[0] > cur[1] {
			covered += cur[1] - cur[0]
			cur = v
			continue
		}
		cur[1] = max(cur[1], v[1])
	}
	covered += cur[1] - cur[0]
	return r.Dur() - covered
}

// lookup returns the totals of span under kind normalised by that kind's
// roots; the zero value when the span never ran there.
func (t spanTable) lookup(kind, span string) (calls, selfMS, bytes, rounds float64) {
	st := t.spans[kind][span]
	n := t.roots[kind]
	if st == nil || n == 0 {
		return 0, 0, 0, 0
	}
	f := float64(n)
	return float64(st.calls) / f, ms(st.self) / f, float64(st.bytes) / f, float64(st.rounds) / f
}

// Spans reported per layer. The infer spans are reported per measured
// inference under infer roots; the open and fill spans per open and per
// banked kit under theirs.
var (
	inferSpans = []string{
		"secure.linear.mul", "secure.abrelu", "secure.trunc", "secure.mux", "secure.b2a",
		"scm.msb", "scm.cmp", "ot.send.tokens", "ot.recv.tokens", "ot.send", "ot.recv",
		"triple.gilboa", "input.share", "reveal",
	}
	openSpans = []string{"exchange.shares"}
	fillSpans = []string{"triple.gilboa", "ot.send", "ot.recv"}
	// providerFillSpans is the provider's half of kit generation.
	providerFillSpans = []string{"triple.gilboa"}
)

// traceMetrics is the user party's span costs and the provider's self
// times, by metric name.
func traceMetrics(user, provider spanTable, out metrics) {
	for _, grp := range []struct {
		kind, prefix string
		spans        []string
	}{
		{underInfer, "trace.", inferSpans},
		{underOpen, "trace.open.", openSpans},
		{underFill, "trace.fill.", fillSpans},
	} {
		for _, s := range grp.spans {
			calls, self, bytes, rounds := user.lookup(grp.kind, s)
			out.set(grp.prefix+s+".calls", calls)
			out.set(grp.prefix+s+".self_ms", self)
			out.set(grp.prefix+s+".bytes", bytes)
			out.set(grp.prefix+s+".rounds", rounds)
		}
	}
	for _, grp := range []struct {
		kind, prefix string
		spans        []string
	}{
		{underInfer, "trace.provider.", inferSpans},
		{underOpen, "trace.provider.open.", openSpans},
		{underFill, "trace.provider.fill.", providerFillSpans},
	} {
		for _, s := range grp.spans {
			_, self, _, _ := provider.lookup(grp.kind, s)
			out.set(grp.prefix+s+".self_ms", self)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
