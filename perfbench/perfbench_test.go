package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"aq2pnn/internal/engine"
	"aq2pnn/internal/nn"
	"aq2pnn/internal/ring"
)

func TestPercentile(t *testing.T) {
	seq := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			// Reversed, so the function must sort.
			out[i] = time.Duration(n-i) * time.Millisecond
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{"empty", 0, 0.5, 0, false},
		{"one sample", 1, 0.5, 1, false},
		{"median of two is the lower", 2, 0.5, 1, false},
		{"median of three", 3, 0.5, 2, false},
		{"median with ten beyond", 21, 0.5, 11, true},
		{"median with nine beyond", 19, 0.5, 10, false},
		{"p90 of 100 has ten beyond", 100, 0.9, 90, true},
		{"p90 of 99 has nine beyond", 99, 0.9, 90, false},
		{"p90 of 110", 110, 0.9, 99, true},
		{"p100 has none beyond", 200, 1, 200, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := percentile(seq(tc.n), tc.p)
			if got != tc.want || ok != tc.wantOK {
				t.Errorf("percentile(%d samples, %g) = %g, %v; want %g, %v", tc.n, tc.p, got, ok, tc.want, tc.wantOK)
			}
		})
	}
}

// TestMeasureCoversOnlyTheCall: allocation and CPU time spent before
// and after the measured call stay out of its deltas.
func TestMeasureCoversOnlyTheCall(t *testing.T) {
	var sink [][]byte
	// spin burns d of process CPU time, however long that takes on a
	// shared host.
	spin := func(d time.Duration) {
		for start := procSnapshot().CPU; procSnapshot().CPU-start < d; {
		}
	}
	const allocs = 1000
	for i := 0; i < 50*allocs; i++ {
		sink = append(sink, make([]byte, 64))
	}
	spin(200 * time.Millisecond)
	wall, d := measure(func() {
		for i := 0; i < allocs; i++ {
			sink = append(sink, make([]byte, 64))
		}
		spin(50 * time.Millisecond)
	})
	spin(200 * time.Millisecond)
	if d.Mallocs < allocs || d.Mallocs > 2*allocs {
		t.Errorf("measured %d allocations, want about %d", d.Mallocs, allocs)
	}
	if d.CPU < 50*time.Millisecond || d.CPU >= 200*time.Millisecond {
		t.Errorf("measured %v of CPU, want 50ms and none of the 200ms spent outside", d.CPU)
	}
	if wall <= 0 {
		t.Errorf("measured %v of wall time", wall)
	}
	_ = sink
}

// TestProbeEqualsOnline: the connection probe's frame and byte counts of
// every inference equal the engine's own Result.Online, exactly on a
// plain session and with one mux prefix byte per frame under the
// preprocessing plane.
func TestProbeEqualsOnline(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"micro-cold", "micro-warm"} {
		t.Run(name, func(t *testing.T) {
			w, _ := workloadByName(name)
			w.opens, w.kits = 1, func(int) int { return 4 }
			p, err := runPass(ctx, w, 5, 3, false, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.samples) < 2 {
				t.Fatalf("%d samples, want at least 2", len(p.samples))
			}
			var prefix uint64
			if w.warm {
				prefix = 1
			}
			controls := 0
			for _, s := range p.samples {
				switch {
				case s.probe.matches(s.res.Online, prefix):
				case w.warm && s.probe.closeControl(s.res.Online):
					controls++
				default:
					t.Errorf("inference %d: probe %+v, engine %v", s.seq, s.probe, s.res.Online)
				}
			}
			if controls > 1 {
				t.Errorf("%d inferences carried a close control, want at most 1", controls)
			}
			m, _ := model(w, 5)
			var v verdict
			checkSamples(&v, m, p.samples, w.warm)
			if !v.ok() {
				t.Errorf("checks failed: %v", v.problems)
			}
		})
	}
}

// TestWarmEqualsCold: at one seed micro-warm and micro-cold reveal the
// same leading logits, and a second run repeats them.
func TestWarmEqualsCold(t *testing.T) {
	ctx := context.Background()
	digests := map[string]string{}
	for _, name := range []string{"micro-warm", "micro-cold", "micro-warm"} {
		w, _ := workloadByName(name)
		w.opens, w.kits = 1, func(int) int { return replayN }
		p, err := runPass(ctx, w, 9, 8, false, false)
		if err != nil {
			t.Fatal(err)
		}
		lead := leading(p.samples, replayN)
		if len(lead) != replayN {
			t.Fatalf("%s: %d leading inferences, want %d", name, len(lead), replayN)
		}
		digests[digest(lead)] += name + " "
	}
	if len(digests) != 1 {
		t.Errorf("logits digests differ between runs: %v", digests)
	}
}

// TestLogitBoundCoversSecureResult: the secure logits of in-domain
// inputs stay within the derived bound of the plaintext ring-mode pass.
func TestLogitBoundCoversSecureResult(t *testing.T) {
	w, _ := workloadByName("micro-cold")
	r := ring.New(carrierBits)
	for seed := uint64(1); seed <= 3; seed++ {
		m, _ := model(w, seed)
		for i := 0; i < 5; i++ {
			x, err := input(m, r, seed, 0, i)
			if err != nil {
				t.Fatal(err)
			}
			bound, err := logitBound(m, x)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := m.Forward(x, nn.ForwardOptions{Mode: nn.Ring, Carrier: r})
			res, err := engine.RunLocal(m, x, engine.Options{CarrierBits: carrierBits, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(want, res.Logits); d > bound {
				t.Errorf("seed %d input %d: secure differs by %d, bound %d", seed, i, d, bound)
			}
		}
	}
}

// TestBenchmarkJSON: BENCHMARK.json names exactly the workloads and the
// metrics, with their units, that this program runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []def, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
}
