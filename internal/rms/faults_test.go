package rms

import (
	"testing"

	"rmscale/internal/grid"
)

// churnConfig is smallConfig with a heavy manager-side fault load:
// scheduler and estimator crashes, protocol message loss and access
// link outages, with the timeout/retry path armed.
func churnConfig() grid.Config {
	cfg := smallConfig()
	cfg.Spec.Estimators = 2
	cfg.Faults = grid.FaultModel{
		SchedulerMTBF: 800, SchedulerRepair: 120,
		EstimatorMTBF: 800, EstimatorRepair: 120,
		MsgLossProb:    0.05,
		LinkOutageMTBF: 1500, LinkOutageDuration: 60,
		RetryTimeout: 20, MaxRetries: 3,
	}
	return cfg
}

// TestAllModelsSurviveChurn: with the full fault load, every model must
// finish its run with a bounded job-loss fraction and job conservation
// intact — one crashed manager must not take the workload with it.
func TestAllModelsSurviveChurn(t *testing.T) {
	sawFailover, sawRetry := false, false
	for _, p := range append(All(), Extensions()...) {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			cfg := churnConfig()
			e, err := grid.New(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			sum := e.Run()
			m := e.Metrics
			t.Logf("%s: %v parked=%d stale=%d abandoned=%d fallbacks=%d unfinished=%d",
				p.Name(), sum, m.JobsParked, m.StaleActions, m.MsgsAbandoned,
				m.EstimatorFallbacks, e.Unfinished())
			if m.JobsCompleted == 0 {
				t.Fatal("no jobs completed under churn")
			}
			if m.JobsCompleted+m.JobsLost+e.Unfinished() != m.JobsArrived {
				t.Fatalf("job conservation violated: %d completed + %d lost + %d unfinished != %d arrived",
					m.JobsCompleted, m.JobsLost, e.Unfinished(), m.JobsArrived)
			}
			// Bounded loss: crashes may destroy running jobs, but the
			// failover path must keep the vast majority alive.
			if frac := float64(m.JobsLost) / float64(m.JobsArrived); frac > 0.25 {
				t.Fatalf("lost %.2f of jobs (%d/%d)", frac, m.JobsLost, m.JobsArrived)
			}
			if sum.Crashes == 0 {
				t.Fatal("fault load armed but nothing crashed")
			}
			if sum.Downtime <= 0 {
				t.Fatal("crashes recorded but no downtime accounted")
			}
			sawFailover = sawFailover || sum.Failovers > 0 || m.JobsParked > 0
			sawRetry = sawRetry || sum.Retries > 0
		})
	}
	if !sawFailover {
		t.Error("no model ever re-homed or parked a job")
	}
	if !sawRetry {
		t.Error("no model ever retransmitted a protocol message")
	}
}

// TestSchedulerCrashFailover: scheduler crashes alone (no message loss)
// must produce nonzero failover and retry counters on a distributed
// model — jobs re-home over the peer list and in-flight messages to the
// dead scheduler hit the timeout path.
func TestSchedulerCrashFailover(t *testing.T) {
	cfg := smallConfig()
	cfg.Faults = grid.FaultModel{
		SchedulerMTBF: 600, SchedulerRepair: 150,
		RetryTimeout: 20, MaxRetries: 3,
	}
	e, err := grid.New(cfg, NewLowest())
	if err != nil {
		t.Fatal(err)
	}
	sum := e.Run()
	if sum.Crashes == 0 {
		t.Fatal("no scheduler ever crashed")
	}
	if sum.Failovers == 0 {
		t.Fatal("crashes happened but no job failed over")
	}
	if sum.Retries == 0 {
		t.Fatal("crashes happened but no message was retried")
	}
	if float64(sum.JobsLost) > 0.25*float64(sum.Jobs) {
		t.Fatalf("unbounded job loss: %d of %d", sum.JobsLost, sum.Jobs)
	}
}

// TestCentralSurvivesSchedulerCrash: the central scheduler has no peer
// to fail over to, so its jobs park through the outage and drain at
// repair. The model must still complete most of its work.
func TestCentralSurvivesSchedulerCrash(t *testing.T) {
	cfg := smallConfig()
	cfg.Faults = grid.FaultModel{
		SchedulerMTBF: 1000, SchedulerRepair: 100,
		RetryTimeout: 20, MaxRetries: 3,
	}
	e, err := grid.New(cfg, NewCentral())
	if err != nil {
		t.Fatal(err)
	}
	sum := e.Run()
	m := e.Metrics
	if sum.Crashes == 0 {
		t.Skip("central scheduler never crashed at this seed")
	}
	if m.JobsParked == 0 {
		t.Fatal("central crash must park submissions, not lose them")
	}
	if sum.Failovers != 0 {
		t.Fatal("central has no peers; failover is impossible")
	}
	if frac := float64(m.JobsCompleted) / float64(m.JobsArrived); frac < 0.8 {
		t.Fatalf("only %.2f of jobs completed", frac)
	}
}

// TestEstimatorCrashFallback: estimator death must reroute status
// updates directly to the schedulers instead of silently dropping them.
func TestEstimatorCrashFallback(t *testing.T) {
	cfg := smallConfig()
	cfg.Spec.Estimators = 2
	cfg.Faults = grid.FaultModel{
		EstimatorMTBF: 500, EstimatorRepair: 200,
	}
	e, err := grid.New(cfg, NewSymmetric())
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if e.Metrics.EstimatorCrashes == 0 {
		t.Fatal("no estimator ever crashed")
	}
	if e.Metrics.EstimatorFallbacks == 0 {
		t.Fatal("estimator down but no update fell back to direct delivery")
	}
}

// TestChurnDeterminism: the fault machinery must be exactly as
// reproducible as the rest of the engine — same seed, same fault load,
// identical summary and audit outcome, for every model.
func TestChurnDeterminism(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			a := runAudited(t, name, churnConfig())
			b := runAudited(t, name, churnConfig())
			if a != b {
				t.Fatalf("same seed diverged under churn:\n a=%+v\n b=%+v", a, b)
			}
		})
	}
}

// TestFaultStreamsIndependent: enabling faults must not perturb the
// workload or topology streams — the generated job list and the
// substrate are identical with and without the fault load.
func TestFaultStreamsIndependent(t *testing.T) {
	cleanCfg := churnConfig()
	cleanCfg.Faults = grid.FaultModel{}
	clean, err := grid.New(cleanCfg, NewLowest())
	if err != nil {
		t.Fatal(err)
	}
	churn, err := grid.New(churnConfig(), NewLowest())
	if err != nil {
		t.Fatal(err)
	}
	cj, fj := clean.Jobs(), churn.Jobs()
	if len(cj) != len(fj) {
		t.Fatalf("workload changed under faults: %d vs %d jobs", len(cj), len(fj))
	}
	for i := range cj {
		if cj[i].Arrival != fj[i].Arrival || cj[i].Runtime != fj[i].Runtime ||
			cj[i].Cluster != fj[i].Cluster || cj[i].Class != fj[i].Class {
			t.Fatalf("job %d differs under faults: %+v vs %+v", i, cj[i], fj[i])
		}
	}
	if clean.Graph.N != churn.Graph.N {
		t.Fatalf("topology changed under faults: %d vs %d nodes", clean.Graph.N, churn.Graph.N)
	}
	for c := 0; c < clean.Clusters(); c++ {
		a, b := clean.Scheduler(c).Peers(), churn.Scheduler(c).Peers()
		if len(a) != len(b) {
			t.Fatalf("cluster %d peer list changed under faults", c)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("cluster %d peer list changed under faults: %v vs %v", c, a, b)
			}
		}
	}
}

// TestRetryKnobsAloneAreFaultFree: retry knobs without any fault class
// enabled must leave the run byte-identical to a zero fault model —
// the machinery only arms when something can actually fail.
func TestRetryKnobsAloneAreFaultFree(t *testing.T) {
	cfg := smallConfig()
	a := runModel(t, NewLowest(), cfg)
	cfg.Faults.RetryTimeout = 30
	cfg.Faults.MaxRetries = 5
	b := runModel(t, NewLowest(), cfg)
	if a != b {
		t.Fatalf("retry knobs alone changed the run:\n a=%v\n b=%v", a, b)
	}
}
