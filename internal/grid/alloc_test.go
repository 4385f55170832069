package grid

import (
	"testing"
)

// Allocation budget for the engine's protocol loops. The kernel itself
// is allocation-free in steady state (internal/sim's alloc tests); what
// remains per event here is the engine layer — deferred-delivery
// closures, job envelopes, policy hooks; status ticks and the
// scheduler and estimator work queues add nothing per item. This pins
// that remainder to a fixed per-event budget so map churn or
// per-message slice allocations creeping back into the
// scheduler/estimator/update paths fail the suite on any machine,
// without a benchmark diff.

func runAllocProbe(t *testing.T, estimators int) (perEvent float64) {
	t.Helper()
	run := func() uint64 {
		cfg := testConfig()
		cfg.Spec.Estimators = estimators
		eng, err := New(cfg, &stubPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return eng.K.Processed()
	}
	events := run()
	if events == 0 {
		t.Fatal("engine processed no events")
	}
	allocs := testing.AllocsPerRun(2, func() { run() })
	return allocs / float64(events)
}

func TestEngineAllocBudgetDirectUpdates(t *testing.T) {
	const budget = 2.0
	if per := runAllocProbe(t, 0); per > budget {
		t.Errorf("direct-update engine run allocates %.2f/event, budget %.2f", per, budget)
	}
}

func TestEngineAllocBudgetEstimatorDigests(t *testing.T) {
	const budget = 2.0
	if per := runAllocProbe(t, 4); per > budget {
		t.Errorf("estimator-digest engine run allocates %.2f/event, budget %.2f", per, budget)
	}
}
