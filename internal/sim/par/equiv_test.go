// The cross-worker equivalence suite. Parallelism in rmscale lives in
// the runner's work-stealing pool (`-j`), which runs whole independent
// simulations side by side; its contract is that how many of them run
// at once changes nothing observable. This file pins that from three
// angles — every RMS model's engine summary and audit fingerprint
// across fault modes, the chaos corpus' replay reports, and a full
// experiment case's golden CSV figures — each against a run made alone.

package par_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"rmscale"
	"rmscale/internal/audit"
	"rmscale/internal/audit/chaos"
	"rmscale/internal/grid"
	"rmscale/internal/rms"
	"rmscale/internal/runner"
	"rmscale/internal/topology"
)

var workerCounts = []int{2, 4, 8}

// onPool runs fn once per worker on a pool of that many workers, so
// every copy runs alongside the others, and returns the results in
// submission order.
func onPool[T any](t *testing.T, workers int, fn func() (T, error)) []T {
	t.Helper()
	out := make([]T, workers)
	var mu sync.Mutex
	p := runner.NewPool(context.Background(), workers, nil)
	for i := range out {
		i := i
		p.Submit(runner.Task{
			ID: fmt.Sprintf("copy%d", i),
			Run: func(*runner.TaskCtx) error {
				r, err := fn()
				mu.Lock()
				out[i] = r
				mu.Unlock()
				return err
			},
		})
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	return out
}

// modelConfig is a small four-cluster grid with every model-visible
// feature armed (estimator layer included) at roughly the calibrated
// utilization, sized so the whole model × fault-mode × worker-count
// matrix stays in test-suite budget.
func modelConfig(faulted bool) grid.Config {
	cfg := grid.DefaultConfig()
	cfg.Spec = topology.GridSpec{Clusters: 4, ClusterSize: 5, Estimators: 2}
	cfg.Workload.Clusters = 4
	cfg.Workload.ArrivalRate = 0.9 * 20 / 524.2
	cfg.Workload.Horizon = 1000
	cfg.Horizon = 1000
	cfg.Drain = 1200
	if faulted {
		cfg.Faults = rmscale.ChurnFaults()
		cfg.Faults.ResourceMTBF = 1500
		cfg.Faults.RepairTime = 150
		cfg.Faults.UpdateLossProb = 0.02
	}
	return cfg
}

// modelRun is what one audited engine run exposes to its caller.
type modelRun struct {
	Sum         grid.Summary
	Fingerprint string
}

// runModel builds a fresh audited engine for the model and returns its
// summary and audit fingerprint after Run.
func runModel(name string, faulted bool) (modelRun, error) {
	p, err := rms.ByName(name)
	if err != nil {
		return modelRun{}, err
	}
	e, err := grid.New(modelConfig(faulted), p)
	if err != nil {
		return modelRun{}, err
	}
	if faulted {
		if err := e.ArmFaults(); err != nil {
			return modelRun{}, err
		}
	}
	a, err := audit.Attach(e, audit.Config{Mode: audit.Record})
	if err != nil {
		return modelRun{}, err
	}
	sum := e.Run()
	if err := a.Err(); err != nil {
		return modelRun{}, fmt.Errorf("%s (faulted=%v): audit: %w", name, faulted, err)
	}
	return modelRun{Sum: sum, Fingerprint: a.Fingerprint()}, nil
}

// TestEngineEquivalenceAllModels runs every RMS model fault-free and
// under the churn fault load, alone and as 2/4/8 concurrent copies on
// a runner pool, and requires byte-identical summaries and audit
// fingerprints: engines share no mutable state.
func TestEngineEquivalenceAllModels(t *testing.T) {
	if testing.Short() {
		t.Skip("full model × fault × workers matrix is slow")
	}
	for _, name := range rms.Names() {
		for _, faulted := range []bool{false, true} {
			mode := "fault-free"
			if faulted {
				mode = "churn"
			}
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				want, err := runModel(name, faulted)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range workerCounts {
					for i, got := range onPool(t, w, func() (modelRun, error) { return runModel(name, faulted) }) {
						if got.Sum != want.Sum {
							t.Fatalf("workers=%d copy %d summary diverged:\n got %+v\nwant %+v", w, i, got.Sum, want.Sum)
						}
						if got.Fingerprint != want.Fingerprint {
							t.Fatalf("workers=%d copy %d audit fingerprint %s, want %s", w, i, got.Fingerprint, want.Fingerprint)
						}
					}
				}
			})
		}
	}
}

// TestChaosCorpusEquivalence replays one generated chaos schedule per
// RMS model (the generator covers models round-robin) alone and as
// concurrent copies at every worker count, and requires the full
// report — summary, violation list, check count and fingerprint — to
// be identical to the solo replay.
func TestChaosCorpusEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos corpus replay matrix is slow")
	}
	for i := range rms.Names() {
		s := chaos.Generate(1, i)
		t.Run(s.Name+"/"+s.Model, func(t *testing.T) {
			want, err := chaos.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts {
				for c, got := range onPool(t, w, func() (chaos.Report, error) { return chaos.Run(s) }) {
					if got.Summary != want.Summary {
						t.Fatalf("workers=%d copy %d chaos summary diverged:\n got %+v\nwant %+v", w, c, got.Summary, want.Summary)
					}
					if got.Fingerprint != want.Fingerprint || got.Checks != want.Checks ||
						fmt.Sprint(got.Violations) != fmt.Sprint(want.Violations) {
						t.Fatalf("workers=%d copy %d chaos report diverged:\n got %+v\nwant %+v", w, c, got, want)
					}
				}
			}
		})
	}
}

// TestGoldenCSVEquivalence renders a full smoke experiment case to its
// CSV figure twice — on one runner worker and on four — and requires
// the bytes to be identical. This is the end-to-end leg: workload
// generation, tuning, journaling and figure rendering all sit between
// the pool and the output.
func TestGoldenCSVEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full case run is slow")
	}
	render := func(workers int) []byte {
		t.Helper()
		r, err := rmscale.RunCaseSpec(1, rmscale.RunSpec{
			Fidelity: rmscale.Smoke,
			Seed:     1,
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.Figure().WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("golden CSV diverged between 1 and 4 workers:\n1 worker:\n%s\n4 workers:\n%s", serial, parallel)
	}
}
