package grid

import (
	"math"
	"strings"
	"testing"

	"rmscale/internal/workload"
)

func traceJobs(n int, clusters int) []*workload.Job {
	out := make([]*workload.Job, n)
	for i := range out {
		out[i] = &workload.Job{
			ID: i, Arrival: float64(i * 10), Runtime: 50, Requested: 60,
			Benefit: 4, Partition: 1, Cluster: i % clusters, Class: workload.Local,
		}
	}
	return out
}

func TestUseJobsReplacesWorkload(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	jobs := traceJobs(5, 4)
	if err := e.UseJobs(jobs); err != nil {
		t.Fatal(err)
	}
	sum := e.Run()
	if sum.Jobs != 5 {
		t.Fatalf("ran %d jobs, want 5", sum.Jobs)
	}
	if e.Metrics.JobsCompleted != 5 {
		t.Fatalf("completed %d", e.Metrics.JobsCompleted)
	}
	if e.Metrics.JobsAdmitted != e.Metrics.JobsArrived {
		t.Fatalf("admitted %d of %d arrived jobs", e.Metrics.JobsAdmitted, e.Metrics.JobsArrived)
	}
}

func TestUseJobsValidation(t *testing.T) {
	mk := func() *Engine {
		e, err := New(testConfig(), &stubPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	jobs := traceJobs(3, 4)
	jobs[1] = nil
	if err := mk().UseJobs(jobs); err == nil {
		t.Error("nil job accepted")
	}
	jobs = traceJobs(3, 4)
	jobs[2].Arrival = 0
	if err := mk().UseJobs(jobs); err == nil {
		t.Error("out-of-order arrivals accepted")
	}
	jobs = traceJobs(3, 4)
	jobs[0].Cluster = 99
	if err := mk().UseJobs(jobs); err == nil {
		t.Error("bad cluster accepted on a multi-cluster engine")
	}
	jobs = traceJobs(3, 4)
	jobs[0].Cluster = -1
	if err := mk().UseJobs(jobs); err == nil {
		t.Error("negative cluster accepted")
	}
	jobs = traceJobs(3, 4)
	jobs[0].Runtime = 0
	if err := mk().UseJobs(jobs); err == nil {
		t.Error("zero runtime accepted")
	}
}

// Non-finite job fields would poison the kernel clock (a NaN arrival),
// the metrics (a NaN runtime passes a plain <= 0 check) or the policies'
// completion estimates (a NaN requested time loses every comparison).
// A negative first arrival is not an ordering problem, a request below
// the runtime is no upper bound, and a benefit <= 0 puts the deadline
// at or before arrival, so each gets its own error.
func TestUseJobsRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(j *workload.Job)
		want string
	}{
		{"NaN arrival", func(j *workload.Job) { j.Arrival = nan }, "non-finite arrival"},
		{"+Inf arrival", func(j *workload.Job) { j.Arrival = inf }, "non-finite arrival"},
		{"-Inf arrival", func(j *workload.Job) { j.Arrival = -inf }, "non-finite arrival"},
		{"negative arrival", func(j *workload.Job) { j.Arrival = -5 }, "negative time"},
		{"NaN runtime", func(j *workload.Job) { j.Runtime = nan }, "non-finite runtime"},
		{"+Inf runtime", func(j *workload.Job) { j.Runtime = inf }, "non-finite runtime"},
		{"NaN benefit", func(j *workload.Job) { j.Benefit = nan }, "non-finite benefit"},
		{"-Inf benefit", func(j *workload.Job) { j.Benefit = -inf }, "non-finite benefit"},
		{"NaN requested", func(j *workload.Job) { j.Requested = nan }, "non-finite requested"},
		{"+Inf requested", func(j *workload.Job) { j.Requested = inf }, "non-finite requested"},
		{"-Inf requested", func(j *workload.Job) { j.Requested = -inf }, "non-finite requested"},
		{"requested below runtime", func(j *workload.Job) { j.Requested = j.Runtime - 1 }, "below its runtime"},
		{"zero benefit", func(j *workload.Job) { j.Benefit = 0 }, "non-positive benefit"},
		{"negative benefit", func(j *workload.Job) { j.Benefit = -2 }, "non-positive benefit"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := New(testConfig(), &stubPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			jobs := traceJobs(3, 4)
			c.edit(jobs[0])
			err = e.UseJobs(jobs)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("UseJobs error = %v, want one mentioning %q", err, c.want)
			}
		})
	}
}

func TestUseJobsCentralRemap(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{central: true})
	if err != nil {
		t.Fatal(err)
	}
	jobs := traceJobs(6, 4) // clusters 0..3, engine has 1
	if err := e.UseJobs(jobs); err != nil {
		t.Fatal(err)
	}
	for _, j := range e.Jobs() {
		if j.Cluster != 0 {
			t.Fatalf("central remap failed: cluster %d", j.Cluster)
		}
	}
	// The caller's slice must be untouched.
	if jobs[1].Cluster != 1 {
		t.Fatal("UseJobs mutated the caller's jobs")
	}
}

func TestUseJobsAfterRunRejected(t *testing.T) {
	e, err := New(testConfig(), &stubPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if err := e.UseJobs(traceJobs(2, 4)); err == nil {
		t.Fatal("UseJobs accepted after Run")
	}
}
