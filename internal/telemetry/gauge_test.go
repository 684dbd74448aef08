package telemetry

import (
	"strings"
	"testing"
)

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("bank_fill")
	if g.Value() != 0 {
		t.Errorf("fresh gauge = %d, want 0", g.Value())
	}
	g.Set(5)
	g.Set(2) // gauges go down too
	if g.Value() != 2 {
		t.Errorf("gauge = %d, want 2", g.Value())
	}
	if r.Gauge("bank_fill") != g {
		t.Error("second lookup returned a different gauge")
	}
	g.Set(-1)
	if got := r.Gauges()["bank_fill"]; got != -1 {
		t.Errorf("snapshot = %d, want -1", got)
	}

	// Nil-safety across the disabled chain.
	var nilG *Gauge
	nilG.Set(9)
	if nilG.Value() != 0 {
		t.Error("nil gauge carries a value")
	}
	var nilR *Registry
	if nilR.Gauge("x") != nil || nilR.Gauges() != nil {
		t.Error("nil registry handed out instruments")
	}

	// Prometheus exposition renders the gauge type.
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE bank_fill gauge\nbank_fill -1\n"
	if !strings.Contains(sb.String(), want) {
		t.Errorf("exposition %q missing %q", sb.String(), want)
	}
}

func TestSetGaugeGated(t *testing.T) {
	defer Disable()
	Disable()
	// The default registry outlives one run of the test (-count=N): a
	// disabled SetGauge must leave whatever value is there.
	before := Default().Gauges()["gate_gauge_test"]
	SetGauge("gate_gauge_test", before+7)
	if v := Default().Gauges()["gate_gauge_test"]; v != before {
		t.Errorf("disabled SetGauge wrote %d", v)
	}
	Enable()
	SetGauge("gate_gauge_test", 7)
	if v := Default().Gauges()["gate_gauge_test"]; v != 7 {
		t.Errorf("enabled SetGauge recorded %d, want 7", v)
	}
}
