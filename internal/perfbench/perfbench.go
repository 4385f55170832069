// Package perfbench is the repository's benchmark-regression harness.
//
// It runs the kernel micro-benchmarks, one smoke-fidelity grid
// simulation per RMS model, and one rmscaled load iteration (1000
// experiment objects over HTTP against an in-process daemon, see
// service.go), condenses them into a small set of named metrics
// (ns/event, allocs/event, events/sec, per-model engine throughput,
// service dedup counts and latency percentiles) and emits a
// machine-readable report (the committed BENCH_sim.json baseline).
// Compare gates a fresh report against the baseline:
//
//   - "exact" metrics (simulated event counts) are deterministic in the
//     seed and must not move at all — a drift means the optimisation
//     changed model behaviour, the same signal the golden files carry;
//   - "max" metrics (allocations per event/run) are deterministic for a
//     given Go version and may not regress beyond a small tolerance;
//   - ungated metrics (wall-clock times, derived rates) vary with the
//     machine and are recorded for trend reading only;
//   - any other gate kind in the baseline is itself a violation, so a
//     typo or a retired kind can never leave a metric silently ungated.
//
// The harness runs from `rmscale bench` (see cmd/rmscale) and from the
// `make bench` / `make benchcheck` targets.
package perfbench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"testing"
	"time"

	"rmscale"
	"rmscale/internal/sim"
)

// Gate classifies how Compare treats a metric.
const (
	// GateNone marks machine-dependent metrics: recorded, never gated.
	GateNone = "none"
	// GateMax marks metrics that must not exceed baseline*(1+tolerance).
	GateMax = "max"
	// GateExact marks metrics that must match the baseline exactly.
	GateExact = "exact"
)

// Metric is one named measurement.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Gate  string  `json:"gate"`
}

// Report is one harness run, the unit both committed as the baseline
// and produced for comparison. Metrics are sorted by name so the JSON
// encoding is stable.
type Report struct {
	// Go records the toolchain that produced the report; allocation
	// counts are deterministic only within one Go version, so a gate
	// failure right after a toolchain bump usually means "refresh the
	// baseline", not "regression".
	Go      string   `json:"go"`
	Seed    int64    `json:"seed"`
	Metrics []Metric `json:"metrics"`
}

// benchSeed fixes every simulation the harness runs.
const benchSeed = 1

// Run executes the harness and returns the report.
func Run() (Report, error) {
	rep := Report{Go: runtime.Version(), Seed: benchSeed}
	rep.Metrics = append(rep.Metrics, kernelMetrics()...)
	for _, name := range rmscale.ModelNames() {
		ms, err := engineMetrics(name)
		if err != nil {
			return Report{}, err
		}
		rep.Metrics = append(rep.Metrics, ms...)
	}
	ms, err := serviceMetrics()
	if err != nil {
		return Report{}, err
	}
	rep.Metrics = append(rep.Metrics, ms...)
	sort.Slice(rep.Metrics, func(i, j int) bool {
		return rep.Metrics[i].Name < rep.Metrics[j].Name
	})
	return rep, nil
}

// kernelMetrics runs the kernel micro-benchmarks through
// testing.Benchmark and condenses each into ns/event, allocs/event and
// events/sec.
func kernelMetrics() []Metric {
	var out []Metric
	add := func(prefix string, r testing.BenchmarkResult) {
		ns := float64(r.NsPerOp())
		out = append(out,
			Metric{Name: prefix + "/ns_per_event", Value: ns, Unit: "ns", Gate: GateNone},
			Metric{Name: prefix + "/allocs_per_event", Value: float64(r.AllocsPerOp()), Unit: "allocs", Gate: GateMax},
		)
		if ns > 0 {
			out = append(out, Metric{Name: prefix + "/events_per_sec", Value: 1e9 / ns, Unit: "events/s", Gate: GateNone})
		}
	}
	add("kernel/steady", testing.Benchmark(benchKernelSteady))
	add("kernel/cancel", testing.Benchmark(benchKernelCancel))
	add("kernel/ticker", testing.Benchmark(benchTickerCycle))
	return out
}

// benchKernelSteady measures the self-rescheduling steady state: a
// fixed population of events, each firing and rescheduling itself —
// the regime every grid run settles into, and the regime the kernel's
// free list plus implicit heap keep allocation-free.
func benchKernelSteady(b *testing.B) {
	k := sim.NewKernel()
	const fan = 512
	for i := 0; i < fan; i++ {
		var fn func()
		fn = func() { k.After(1, fn) }
		k.Schedule(sim.Time(i)/fan, fn)
	}
	for k.Processed() < 4*fan { // warm the free list
		k.Step()
	}
	b.ResetTimer()
	target := k.Processed() + uint64(b.N)
	for k.Processed() < target {
		k.Step()
	}
}

// benchKernelCancel adds the cancellation path: every firing event
// cancels a previously scheduled sibling and schedules a fresh one,
// exercising lazy deletion and struct recycling together.
func benchKernelCancel(b *testing.B) {
	k := sim.NewKernel()
	var pending *sim.Event
	var fn func()
	fn = func() {
		k.Cancel(pending)
		pending = k.After(2, func() {})
		k.After(1, fn)
	}
	k.After(1, fn)
	for k.Processed() < 64 {
		k.Step()
	}
	b.ResetTimer()
	target := k.Processed() + uint64(b.N)
	for k.Processed() < target {
		k.Step()
	}
}

// benchTickerCycle measures one ticker rearm cycle, the
// highest-frequency periodic load in a grid run.
func benchTickerCycle(b *testing.B) {
	k := sim.NewKernel()
	n := 0
	sim.NewTicker(k, 1, func() { n++ })
	for k.Processed() < 64 {
		k.Step()
	}
	b.ResetTimer()
	target := k.Processed() + uint64(b.N)
	for k.Processed() < target {
		k.Step()
	}
	if n == 0 {
		b.Fatal("ticker never fired")
	}
}

// engineMetrics runs one base-grid smoke simulation for the model and
// reports its event count (exact-gated: the simulation is deterministic
// in the seed), allocations per event (max-gated) and throughput.
func engineMetrics(model string) ([]Metric, error) {
	run := func() (uint64, error) {
		p, err := rmscale.ModelByName(model)
		if err != nil {
			return 0, err
		}
		cfg := rmscale.DefaultConfig()
		cfg.Seed = benchSeed
		eng, err := rmscale.NewEngine(cfg, p)
		if err != nil {
			return 0, err
		}
		eng.Run()
		return eng.K.Processed(), nil
	}
	start := time.Now()
	events, err := run()
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	if events == 0 {
		return nil, fmt.Errorf("perfbench: model %s processed no events", model)
	}
	var runErr error
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := run(); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	prefix := "engine/" + model
	out := []Metric{
		{Name: prefix + "/events", Value: float64(events), Unit: "events", Gate: GateExact},
		{Name: prefix + "/allocs_per_event", Value: allocs / float64(events), Unit: "allocs", Gate: GateMax},
	}
	if s := elapsed.Seconds(); s > 0 {
		out = append(out, Metric{Name: prefix + "/events_per_sec", Value: float64(events) / s, Unit: "events/s", Gate: GateNone})
	}
	return out, nil
}

// WriteJSON encodes the report, indented, with a trailing newline.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport decodes a report written by WriteJSON.
func ReadReport(rd io.Reader) (Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return Report{}, fmt.Errorf("perfbench: decode report: %w", err)
	}
	return r, nil
}

// Compare gates cur against base with the given relative tolerance on
// max-gated metrics (e.g. 0.1 allows a 10% allocation regression before
// failing). It returns one human-readable violation per failed gate;
// an empty slice means the report is within budget. The gate of record
// is the baseline's: re-classifying a metric takes a baseline refresh.
func Compare(base, cur Report, tolerance float64) []string {
	curByName := make(map[string]Metric, len(cur.Metrics))
	for _, m := range cur.Metrics {
		curByName[m.Name] = m
	}
	var bad []string
	for _, b := range base.Metrics {
		if b.Gate == GateNone {
			continue
		}
		c, ok := curByName[b.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: gated metric missing from current report", b.Name))
			continue
		}
		switch b.Gate {
		case GateExact:
			if c.Value != b.Value {
				bad = append(bad, fmt.Sprintf("%s: %.6g, baseline %.6g (exact gate: the simulation changed behaviour)",
					b.Name, c.Value, b.Value))
			}
		case GateMax:
			if limit := b.Value * (1 + tolerance); c.Value > limit {
				bad = append(bad, fmt.Sprintf("%s: %.6g exceeds baseline %.6g by more than %.0f%%",
					b.Name, c.Value, b.Value, tolerance*100))
			}
		default:
			bad = append(bad, fmt.Sprintf("%s: unknown gate kind %q", b.Name, b.Gate))
		}
	}
	return bad
}
