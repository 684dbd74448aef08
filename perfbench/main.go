// Command perfbench is the repository benchmark: it drives the real
// session stack from outside, in one process — in-process providers over
// loopback TCP, engine.NewClient(...).OpenSession, WarmupPreproc and
// DrainPreproc, then a closed loop of Infer — and reports end-to-end
// figures, or with -trace 1 per-layer figures, for one named workload.
//
//	perfbench -workload micro-warm -seed 1 -seconds 5 -trace 0
//
// Every measured inference is checked against the plaintext model; a
// failed check makes the run exit 1. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The full
// report, stamped with the host fingerprint, is written under -out. See
// README.md for the workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"aq2pnn/internal/telemetry"
)

type config struct {
	workload   string
	seed       uint64
	seconds    int
	trace      bool
	out        string
	tracecheck string
	commit     string
	source     string
}

func main() {
	var o config
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: model weights, engine seed and inputs")
	flag.IntVar(&o.seconds, "seconds", 5, "how long the timed loop runs, at most")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer figures from a traced run")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for reports, traces and run records")
	flag.StringVar(&o.tracecheck, "tracecheck", "", "cmd/tracecheck binary run on the emitted traces (needed with -trace 1)")
	flag.StringVar(&o.commit, "commit", "", "commit being measured, for the fingerprint")
	flag.StringVar(&o.source, "source-digest", "", "digest of the measured source tree, for the fingerprint")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(o config) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if o.trace && o.tracecheck == "" {
		return fmt.Errorf("-trace 1 needs -tracecheck")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	ctx := context.Background()
	m, err := model(w, o.seed)
	if err != nil {
		return err
	}

	// The untraced pass gives the end-to-end figures and the outside-in
	// per-layer figures; a traced run repeats the workload with both
	// parties tracing for the span table and the tracing overhead.
	var v verdict
	p, err := runPass(ctx, w, o.seed, o.seconds, false, o.trace)
	if err != nil {
		return err
	}
	s := summarize(w, p)
	checkSamples(&v, m, p.samples, w.warm)
	if g := p.gw; g.Shed+g.Reroutes+g.BackendFailures != 0 {
		v.fail("gateway shed %d, rerouted %d, saw %d backend failures; want none", g.Shed, g.Reroutes, g.BackendFailures)
	}
	if p.starved != 0 {
		v.fail("%d warm inferences found no banked kit", p.starved)
	}
	lead := leading(p.samples, replayN)
	if w.replay {
		if err := replay(ctx, &v, w, o.seed, m, lead); err != nil {
			return err
		}
	}
	rep := report{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Host: fingerprint(o), Samples: s.n, Opens: len(p.opens), KitsBanked: s.kitsBanked,
		Digest: digest(lead),
		Extra: map[string]float64{
			"fill_s_per_kit":     s.fillSPerKit,
			"fill_bytes_per_kit": s.fillBytesPerKit,
		},
	}
	if s.p90ok {
		rep.Extra["infer_ms_p90"] = s.p90
	}
	if err := checkRecords(&v, o, w, s, p.setupBytes, rep.Digest); err != nil {
		return err
	}

	defs := endToEnd
	vals := endToEndMetrics(p, s)
	if o.trace {
		defs = perLayer()
		vals = metrics{}
		probeMetrics(w, p, s, vals)
		tp, err := runPass(ctx, w, o.seed, o.seconds, true, false)
		if err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
		checkSamples(&v, m, tp.samples, w.warm)
		// Tracing never touches protocol bytes.
		tl := leading(tp.samples, replayN)
		if n := min(len(tl), len(lead)); digest(tl[:n]) != digest(lead[:n]) {
			v.fail("traced leading logits differ from the untraced run's")
		}
		if len(tp.samples) > 0 && len(p.samples) > 0 && tp.samples[0].res.Online != p.samples[0].res.Online {
			v.fail("traced online %v, untraced %v", tp.samples[0].res.Online, p.samples[0].res.Online)
		}
		traceMetrics(tabulate(tp.user), tabulate(tp.provider), vals)
		vals.set("trace.overhead_frac", summarize(w, tp).p50/s.p50-1)
		if w.warm {
			if calls, _, _, _ := tabulate(tp.user).lookup(underInfer, "triple.gilboa"); calls != 0 {
				v.fail("triple.gilboa ran under a warm infer root")
			}
		}
		if err := checkTraces(&v, o, w, tp); err != nil {
			return err
		}
		rep.TracedSamples = len(tp.samples)
	}

	res := result{Correct: v.ok(), Attempted: v.attempted, Failed: v.failed, Metrics: map[string]metricValue{}}
	if res.Attempted > 0 {
		rep.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	rep.Problems = v.problems
	for _, d := range defs {
		val, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{val, d.unit}
	}
	rep.Metrics = res.Metrics
	if err := rep.write(o); err != nil {
		return err
	}
	rep.print(defs)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("correctness check failed: " + strings.Join(v.problems, "; "))
	}
	return nil
}

// checkTraces writes both parties' traces and holds each to
// cmd/tracecheck: exact per-span byte attribution and the session
// protocol's structural rules.
func checkTraces(v *verdict, o config, w workload, tp *pass) error {
	for _, party := range []struct {
		name string
		tr   *telemetry.Tracer
	}{{"user", tp.user}, {"provider", tp.provider}} {
		path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-%s.trace.json", w.name, o.seed, party.name))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = telemetry.WriteChromeTrace(f, party.tr)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
		out, err := exec.Command(o.tracecheck, path).CombinedOutput()
		if err != nil {
			v.fail("tracecheck %s: %v: %s", path, err, strings.TrimSpace(string(out)))
		}
	}
	return nil
}

// report is the full record of a run, written under -out.
type report struct {
	Workload      string                 `json:"workload"`
	Seed          uint64                 `json:"seed"`
	Seconds       int                    `json:"seconds"`
	Trace         bool                   `json:"trace"`
	Host          host                   `json:"host"`
	Samples       int                    `json:"samples"`
	TracedSamples int                    `json:"traced_samples,omitempty"`
	Opens         int                    `json:"setup_repetitions"`
	KitsBanked    int                    `json:"kits_banked"`
	Digest        string                 `json:"logits_digest"`
	FailedFrac    float64                `json:"failed_frac"`
	Extra         map[string]float64     `json:"extra"`
	Metrics       map[string]metricValue `json:"metrics"`
	Problems      []string               `json:"problems,omitempty"`
}

func (r report) write(o config) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if r.Trace {
		t = 1
	}
	return os.WriteFile(filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, t)), append(b, '\n'), 0o644)
}

// print writes the human-readable report: the fingerprint, then every
// metric by name with its unit.
func (r report) print(defs []metric) {
	h := r.Host
	fmt.Printf("# %s seed=%d seconds=%d trace=%v  host: %s, nproc=%d GOMAXPROCS=%d %s commit=%s source=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Source)
	fmt.Printf("# samples=%d setup_repetitions=%d kits_banked=%d logits_digest=%s failed_frac=%g\n",
		r.Samples, r.Opens, r.KitsBanked, r.Digest, r.FailedFrac)
	for _, d := range defs {
		fmt.Printf("%-44s %14.4f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	keys := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %-42s %14.4f\n", k, r.Extra[k])
	}
	for _, p := range r.Problems {
		fmt.Println("# FAILED:", p)
	}
}

// host is the fingerprint every output carries.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_digest"`
}

func fingerprint(o config) host {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return host{CPU: cpu, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: o.commit, Source: o.source}
}

// records is what earlier runs in this output directory saw, for the
// checks no single run can make: logits digests must repeat for a seed
// (and agree between micro-warm and micro-cold), and wire costs must
// repeat across seeds. Entries are keyed by the source digest, so a
// changed program starts fresh.
type records struct {
	Digests map[string]string     `json:"digests"`
	Wire    map[string]wireRecord `json:"wire"`
}

type wireRecord struct {
	Online, Rounds, Setup uint64
	FillPerKit            float64
}

func checkRecords(v *verdict, o config, w workload, s summary, setup uint64, dig string) error {
	path := filepath.Join(o.out, "records.json")
	var r records
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if r.Digests == nil {
		r.Digests, r.Wire = map[string]string{}, map[string]wireRecord{}
	}
	route := "direct"
	if w.backends > 1 {
		route = "gateway"
	}
	dkey := fmt.Sprintf("%s/%s/%s/seed=%d", o.source, w.model, route, o.seed)
	if prev, ok := r.Digests[dkey]; ok && prev != dig {
		v.fail("logits digest %s, an earlier run of %s saw %s", dig, dkey, prev)
	}
	r.Digests[dkey] = dig
	wkey := o.source + "/" + w.name
	cur := wireRecord{Online: s.online, Rounds: s.rounds, Setup: setup, FillPerKit: s.fillBytesPerKit}
	if prev, ok := r.Wire[wkey]; ok && prev != cur {
		v.fail("wire costs %+v, an earlier run of %s saw %+v", cur, wkey, prev)
	}
	r.Wire[wkey] = cur
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
