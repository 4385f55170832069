package grid

import (
	"testing"
)

// Allocation budget for the engine's protocol loops. The kernel itself
// is allocation-free in steady state (internal/sim's alloc tests), and
// so is the engine's message fabric: status ticks, pooled delivery
// records and the data-carrying scheduler and estimator work items add
// nothing per message. What remains per event here is per job (the
// arrival, the envelope, its execution record and completion) and per
// digest flush (the snapshot arrays). This pins that remainder to a
// fixed per-event budget so closures, map churn or per-message slice
// allocations creeping back into the scheduler/estimator/update paths
// fail the suite on any machine, without a benchmark diff. Measured:
// 0.98 (direct updates) and 0.12 (estimator digests) per event, down
// from 1.42 and 1.07 with a closure per message.

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
	const budget = 1.05
	if per := runAllocProbe(t, 0); per > budget {
		t.Errorf("direct-update engine run allocates %.2f/event, budget %.2f", per, budget)
	}
}

func TestEngineAllocBudgetEstimatorDigests(t *testing.T) {
	const budget = 0.15
	if per := runAllocProbe(t, 4); per > budget {
		t.Errorf("estimator-digest engine run allocates %.2f/event, budget %.2f", per, budget)
	}
}
