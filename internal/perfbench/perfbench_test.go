package perfbench

import (
	"bytes"
	"strings"
	"testing"
)

func report(ms ...Metric) Report {
	return Report{Go: "gotest", Seed: 1, Metrics: ms}
}

func TestCompareExactGate(t *testing.T) {
	base := report(Metric{Name: "engine/X/events", Value: 1000, Unit: "events", Gate: GateExact})
	if bad := Compare(base, base, 0.1); len(bad) != 0 {
		t.Fatalf("identical reports flagged: %v", bad)
	}
	cur := report(Metric{Name: "engine/X/events", Value: 1001, Unit: "events", Gate: GateExact})
	bad := Compare(base, cur, 0.1)
	if len(bad) != 1 || !strings.Contains(bad[0], "engine/X/events") {
		t.Fatalf("exact drift not flagged: %v", bad)
	}
}

func TestCompareMaxGate(t *testing.T) {
	base := report(Metric{Name: "kernel/steady/allocs_per_event", Value: 10, Unit: "allocs", Gate: GateMax})
	within := report(Metric{Name: "kernel/steady/allocs_per_event", Value: 10.9, Unit: "allocs", Gate: GateMax})
	if bad := Compare(base, within, 0.1); len(bad) != 0 {
		t.Fatalf("within-tolerance value flagged: %v", bad)
	}
	// Improvement never fails the gate.
	better := report(Metric{Name: "kernel/steady/allocs_per_event", Value: 0, Unit: "allocs", Gate: GateMax})
	if bad := Compare(base, better, 0.1); len(bad) != 0 {
		t.Fatalf("improvement flagged: %v", bad)
	}
	worse := report(Metric{Name: "kernel/steady/allocs_per_event", Value: 11.5, Unit: "allocs", Gate: GateMax})
	if bad := Compare(base, worse, 0.1); len(bad) != 1 {
		t.Fatalf("regression not flagged: %v", bad)
	}
}

// TestCompareUnknownGateKind pins that a baseline entry whose gate kind
// Compare does not know (a typo, or the retired "min" kind) is reported
// rather than passed ungated, even when the value is unchanged.
func TestCompareUnknownGateKind(t *testing.T) {
	m := Metric{Name: "x/speedup", Value: 1.5, Unit: "x", Gate: "min"}
	bad := Compare(report(m), report(m), 0.1)
	if len(bad) != 1 || bad[0] != `x/speedup: unknown gate kind "min"` {
		t.Fatalf("unknown gate kind not flagged: %v", bad)
	}
}

func TestCompareIgnoresTimeMetrics(t *testing.T) {
	base := report(Metric{Name: "kernel/steady/ns_per_event", Value: 100, Unit: "ns", Gate: GateNone})
	cur := report(Metric{Name: "kernel/steady/ns_per_event", Value: 10000, Unit: "ns", Gate: GateNone})
	if bad := Compare(base, cur, 0.1); len(bad) != 0 {
		t.Fatalf("ungated metric flagged: %v", bad)
	}
}

func TestCompareMissingGatedMetric(t *testing.T) {
	base := report(Metric{Name: "engine/X/events", Value: 1000, Unit: "events", Gate: GateExact})
	if bad := Compare(base, report(), 0.1); len(bad) != 1 {
		t.Fatalf("missing gated metric not flagged: %v", bad)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := report(
		Metric{Name: "b", Value: 2.5, Unit: "allocs", Gate: GateMax},
		Metric{Name: "a", Value: 3, Unit: "events", Gate: GateExact},
	)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Go != r.Go || got.Seed != r.Seed || len(got.Metrics) != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Metrics[0] != r.Metrics[0] || got.Metrics[1] != r.Metrics[1] {
		t.Fatalf("metrics mismatch: %+v", got.Metrics)
	}
	if bad := Compare(r, got, 0); len(bad) != 0 {
		t.Fatalf("round-tripped report fails its own gate: %v", bad)
	}
}

// TestHarnessSmoke runs the real harness once in -short-skipped mode:
// it is the integration check that every metric the baseline gates on
// is still produced.
func TestHarnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness runs kernel benchmarks; skipped in -short")
	}
	rep, err := Run()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"kernel/steady/allocs_per_event",
		"kernel/cancel/allocs_per_event",
		"kernel/ticker/allocs_per_event",
		"engine/CENTRAL/events",
		"engine/LOWEST/allocs_per_event",
		"service/loadgen/executions",
		"service/loadgen/dedup_hits",
		"service/dedup_hit/allocs",
	}
	have := make(map[string]bool, len(rep.Metrics))
	for _, m := range rep.Metrics {
		have[m.Name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("harness report missing metric %s", name)
		}
	}
	if bad := Compare(rep, rep, 0); len(bad) != 0 {
		t.Errorf("report fails self-comparison: %v", bad)
	}
}
