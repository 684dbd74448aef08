package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"

	"aq2pnn/internal/transport"
)

// stepClock returns a deterministic clock advancing 1 ms per reading.
func stepClock() func() time.Time {
	base := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

func mustSendN(t *testing.T, c transport.Conn, n int) {
	t.Helper()
	if err := c.Send(make([]byte, n)); err != nil {
		t.Fatalf("send: %v", err)
	}
}

func mustRecvN(t *testing.T, c transport.Conn) {
	t.Helper()
	if _, err := c.Recv(); err != nil {
		t.Fatalf("recv: %v", err)
	}
}

func TestSpanCommDelta(t *testing.T) {
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	tr := NewWithClock(stepClock())

	root := tr.Root("infer", WithConn(a), WithAttrs(String("model", "lenet5")))
	conv := root.Child("conv1") // inherits the connection
	mustSendN(t, a, 100)
	mustSendN(t, b, 40)
	mustRecvN(t, a)
	conv.SetAttr("bits", int64(14))
	conv.End()
	relu := root.Child("relu1")
	mustSendN(t, a, 7)
	relu.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, r := range spans {
		byName[r.Name] = r
	}
	cv := byName["conv1"]
	if !cv.HasConn || cv.Comm.BytesSent != 100 || cv.Comm.BytesRecv != 40 || cv.Comm.Rounds != 1 {
		t.Errorf("conv1 comm = %+v", cv.Comm)
	}
	if rl := byName["relu1"]; rl.Comm.BytesSent != 7 || rl.Comm.BytesRecv != 0 {
		t.Errorf("relu1 comm = %+v", rl.Comm)
	}
	rt := byName["infer"]
	if rt.Comm != a.Stats() {
		t.Errorf("root comm %+v != session stats %+v", rt.Comm, a.Stats())
	}
	// The per-phase deltas partition the root's traffic exactly.
	var sum transport.Stats
	sum.Add(cv.Comm)
	sum.Add(byName["relu1"].Comm)
	if sum != rt.Comm {
		t.Errorf("child deltas %+v do not sum to root %+v", sum, rt.Comm)
	}
	// Hierarchy and lanes.
	if rt.Parent != 0 || cv.Parent != rt.ID || cv.Lane != rt.Lane {
		t.Errorf("hierarchy wrong: root=%+v conv=%+v", rt, cv)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewWithClock(stepClock())
	sp := tr.Root("once")
	sp.End()
	sp.End()
	if n := len(tr.Spans()); n != 1 {
		t.Errorf("double End recorded %d spans", n)
	}
}

// TestNilInstruments exercises the whole disabled chain: every method on
// nil tracer/span/scope must be a safe no-op, which is the contract that
// makes telemetry-off inference bit-identical and branch-cheap.
func TestNilInstruments(t *testing.T) {
	var tr *Tracer
	sp := tr.Root("x", WithConn(nil), WithAttrs(Int("k", 1)))
	if sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	sp.SetAttr("a", 1)
	sp.End()
	if c := sp.Child("y"); c != nil {
		t.Fatal("nil span produced a child")
	}
	if tr.Spans() != nil {
		t.Fatal("nil tracer returned spans")
	}
	sc := NewScope(nil)
	if sc != nil {
		t.Fatal("nil root produced a scope")
	}
	inner := sc.Enter("z")
	if inner != nil || sc.Current() != nil {
		t.Fatal("nil scope produced spans")
	}
	sc.Exit(inner)

	var cnt *Counter
	cnt.Inc()
	cnt.Add(5)
	if cnt.Value() != 0 {
		t.Fatal("nil counter counted")
	}
	var h *Histogram
	h.Observe(1)
	var reg *Registry
	if reg.Counter("c") != nil || reg.Histogram("h", nil) != nil || reg.Counters() != nil {
		t.Fatal("nil registry handed out instruments")
	}
	if err := reg.WriteText(nil); err != nil {
		t.Fatal(err)
	}
}

func TestScopeNesting(t *testing.T) {
	tr := NewWithClock(stepClock())
	root := tr.Root("root")
	sc := NewScope(root)
	outer := sc.Enter("outer")
	inner := sc.Enter("inner")
	if sc.Current() != inner {
		t.Fatal("Enter did not make the child current")
	}
	sc.Exit(inner)
	if sc.Current() != outer {
		t.Fatal("Exit did not restore the parent")
	}
	sc.Exit(outer)
	if sc.Current() != root {
		t.Fatal("scope did not unwind to the root")
	}
	root.End()
	for _, r := range tr.Spans() {
		switch r.Name {
		case "inner":
			if parent := findSpan(t, tr, "outer"); r.Parent != parent.ID {
				t.Errorf("inner.Parent = %d, want outer", r.Parent)
			}
		case "outer":
			if r.Parent != findSpan(t, tr, "root").ID {
				t.Errorf("outer.Parent = %d, want root", r.Parent)
			}
		}
	}
}

func findSpan(t *testing.T, tr *Tracer, name string) SpanRecord {
	t.Helper()
	for _, r := range tr.Spans() {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("span %q not found", name)
	return SpanRecord{}
}

// TestTracerConcurrent drives one tracer from many lanes at once, the
// shape of the batch executor; run under -race.
func TestTracerConcurrent(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	const lanes, depth = 8, 20
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root := tr.Root("lane")
			for j := 0; j < depth; j++ {
				sp := root.Child("op")
				sp.SetAttr("j", int64(j))
				sp.End()
			}
			root.End()
		}()
	}
	wg.Wait()
	spans := tr.Spans()
	if len(spans) != lanes*(depth+1) {
		t.Fatalf("got %d spans, want %d", len(spans), lanes*(depth+1))
	}
	perLane := map[uint64]int{}
	for _, r := range spans {
		perLane[r.Lane]++
	}
	if len(perLane) != lanes {
		t.Fatalf("got %d lanes, want %d", len(perLane), lanes)
	}
	for lane, n := range perLane {
		if n != depth+1 {
			t.Errorf("lane %d has %d spans, want %d", lane, n, depth+1)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("ot_executions").Add(3)
	r.Counter("ot_executions").Inc()
	if got := r.Counter("ot_executions").Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	h := r.Histogram("ring_bits", BitBuckets)
	h.Observe(14)
	h.Observe(14)
	h.Observe(37)
	bounds, cum, sum, n := h.Snapshot()
	if n != 3 || sum != 65 {
		t.Errorf("hist n=%d sum=%g", n, sum)
	}
	// 14 ≤ 16 (index 3), 37 ≤ 40 (index 8); cumulative counts.
	if bounds[3] != 16 || cum[3] != 2 || cum[8] != 3 || cum[len(cum)-1] != 3 {
		t.Errorf("hist buckets: bounds=%v cum=%v", bounds, cum)
	}

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE ot_executions counter\not_executions 4\n",
		"# TYPE ring_bits histogram\n",
		`ring_bits_bucket{le="16"} 2`,
		`ring_bits_bucket{le="+Inf"} 3`,
		"ring_bits_sum 65\n",
		"ring_bits_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestGlobalGate(t *testing.T) {
	defer Disable()
	Disable()
	// The default registry outlives one run of the test (-count=N), so
	// the checks are on deltas.
	before := Default().Counters()["gate_test_total"]
	Count("gate_test_total", 5)
	Observe("gate_test_seconds", 1, DurationBuckets)
	if Default().Counters()["gate_test_total"] != before {
		t.Fatal("disabled Count still counted")
	}
	Enable()
	if !Enabled() {
		t.Fatal("Enable did not take")
	}
	Count("gate_test_total", 5)
	if Default().Counters()["gate_test_total"] != before+5 {
		t.Fatal("enabled Count did not count")
	}
}
