package rms

import (
	"testing"

	"rmscale/internal/audit"
	"rmscale/internal/grid"
)

// smallConfig returns a quick configuration exercising every code path.
func smallConfig() grid.Config {
	cfg := grid.DefaultConfig()
	cfg.Spec.Clusters = 6
	cfg.Spec.ClusterSize = 8
	cfg.Workload.Clusters = 6
	cfg.Workload.ArrivalRate = 0.0824 // ~0.9 utilization on 48 resources
	cfg.Workload.Horizon = 2500
	cfg.Horizon = 2500
	cfg.Drain = 2500
	return cfg
}

func runModel(t *testing.T, p grid.Policy, cfg grid.Config) grid.Summary {
	t.Helper()
	e, err := grid.New(cfg, p)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	sum := e.Run()
	if e.K.Overflowed {
		t.Fatalf("%s: event budget overflow", p.Name())
	}
	return sum
}

// auditedRun is one run of a freshly built model under the Record-mode
// auditor, the way experiments and the chaos harness run it.
type auditedRun struct {
	Sum         grid.Summary
	Checks      int
	Fingerprint string
}

// runAudited builds a fresh policy for the named model, runs it under
// the auditor and fails the test on any invariant violation.
func runAudited(t *testing.T, name string, cfg grid.Config) auditedRun {
	t.Helper()
	p, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	e, err := grid.New(cfg, p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	a, err := audit.Attach(e, audit.Config{Mode: audit.Record})
	if err != nil {
		t.Fatal(err)
	}
	sum := e.Run()
	if e.K.Overflowed {
		t.Fatalf("%s: event budget overflow", name)
	}
	if err := a.Err(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return auditedRun{Sum: sum, Checks: a.Checks(), Fingerprint: a.Fingerprint()}
}

// TestAllModelsSmoke runs every model end-to-end and checks the
// conservation invariants of the accounting.
func TestAllModelsSmoke(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			cfg := smallConfig()
			e, err := grid.New(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			sum := e.Run()
			m := e.Metrics
			t.Logf("%s: %v transfers=%d polls=%d updates=%d suppressed=%d unfinished=%d",
				p.Name(), sum, m.JobTransfers, m.PolicyMsgs, m.UpdatesSent, m.UpdatesSuppressed, e.Unfinished())

			if m.JobsArrived == 0 {
				t.Fatal("no jobs arrived")
			}
			if m.JobsCompleted == 0 {
				t.Fatal("no jobs completed")
			}
			if m.JobsCompleted+m.JobsLost+e.Unfinished() != m.JobsArrived {
				t.Fatalf("job conservation violated: %d completed + %d lost + %d unfinished != %d arrived",
					m.JobsCompleted, m.JobsLost, e.Unfinished(), m.JobsArrived)
			}
			if m.JobsSucceeded > m.JobsCompleted {
				t.Fatal("more successes than completions")
			}
			if sum.F < 0 || sum.G < 0 || sum.H < 0 {
				t.Fatalf("negative accounting: %+v", sum)
			}
			if sum.G == 0 {
				t.Fatal("RMS overhead is zero; scheduling must cost something")
			}
			if sum.Efficiency <= 0 || sum.Efficiency >= 1 {
				t.Fatalf("efficiency %v outside (0,1)", sum.Efficiency)
			}
			// The vast majority of jobs must finish in a drained run.
			if frac := float64(m.JobsCompleted) / float64(m.JobsArrived); frac < 0.9 {
				t.Fatalf("only %.2f of jobs completed", frac)
			}
			if m.UpdatesSent == 0 {
				t.Fatal("no status updates sent")
			}
			if m.UpdatesSuppressed == 0 {
				t.Fatal("update suppression never triggered")
			}
		})
	}
}

// TestDistributedModelsTransferLoad checks that every non-central model
// actually moves REMOTE jobs between clusters.
func TestDistributedModelsTransferLoad(t *testing.T) {
	for _, p := range All() {
		p := p
		if p.Central() {
			continue
		}
		t.Run(p.Name(), func(t *testing.T) {
			cfg := smallConfig()
			e, err := grid.New(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			e.Run()
			if e.Metrics.JobTransfers == 0 {
				t.Fatalf("%s never transferred a job", p.Name())
			}
			if e.Metrics.PolicyMsgs == 0 {
				t.Fatalf("%s never exchanged protocol messages", p.Name())
			}
		})
	}
}

// TestDeterminism: same seed, same model, identical summaries and
// audit outcomes, for every model.
func TestDeterminism(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			a := runAudited(t, name, smallConfig())
			b := runAudited(t, name, smallConfig())
			if a != b {
				t.Fatalf("same seed diverged:\n a=%+v\n b=%+v", a, b)
			}
		})
	}
}

// TestSeedSensitivity: different seeds give different summaries.
func TestSeedSensitivity(t *testing.T) {
	cfg := smallConfig()
	a := runModel(t, NewLowest(), cfg)
	cfg.Seed = 999
	b := runModel(t, NewLowest(), cfg)
	if a == b {
		t.Fatal("different seeds produced identical summaries")
	}
}
