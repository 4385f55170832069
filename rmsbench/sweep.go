package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"syscall"
	"time"

	"rmscale/internal/experiments"
	"rmscale/internal/scale"
	"rmscale/internal/stats"
)

// sweepWorkload is one closed-loop sweep: a single in-memory
// RunCaseSpec on a pool of sweepWorkers workers.
type sweepWorkload struct {
	name string
	id   int
	fid  experiments.Fidelity
}

// sweepWorkers is the pool size of every sweep: the host's CPU count.
const sweepWorkers = 2

// Both sweeps run at smoke fidelity: a run must hold dozens of sweeps
// for its medians to be steady across seeds (a quick case-1 sweep takes
// about 10 s and a quick case-3 sweep about 63 s, and their cost varies
// by a third from one experiment seed to the next). Both run in memory:
// with a -resume directory the case-1 sweep waited on about 460 fsyncs,
// and the disk's latency drift moved its median by a quarter between two
// sets of runs.
var (
	sweepCase1 = sweepWorkload{name: "sweep-case1", id: 1, fid: experiments.Smoke}
	sweepCase3 = sweepWorkload{name: "sweep-case3", id: 3, fid: experiments.Smoke}
)

// sweepPool is the number of experiment seeds, 0..sweepPool-1, whose
// tables refs.json pins. A run draws its sweeps' experiment seeds from
// the pool in an order the benchmark seed fixes, so every sweep has a
// committed reference whatever the benchmark seed.
const sweepPool = 200

// poolSeeds is the run's sequence of experiment seeds.
func poolSeeds(seed int64) []int64 {
	perm := rand.New(rand.NewSource(seed)).Perm(sweepPool)
	out := make([]int64, len(perm))
	for i, p := range perm {
		out[i] = int64(p)
	}
	return out
}

// spec is the RunSpec the sweep runs under; dir is set only in traced
// runs, which read runstate.json.
func (w sweepWorkload) spec(seed int64, dir string) experiments.RunSpec {
	return experiments.RunSpec{Fidelity: w.fid, Seed: seed, Workers: sweepWorkers, Dir: dir}
}

// renderCase writes the case's figure tables, ranking and flags the way
// `rmscale -format table caseN` prints them, or with csv the way
// `-format csv` does.
func renderCase(r *experiments.Result, csv bool) ([]byte, error) {
	var b bytes.Buffer
	emit := func(ss *stats.SeriesSet) error {
		if csv {
			return ss.WriteCSV(&b)
		}
		return ss.WriteTable(&b)
	}
	if err := emit(r.Figure()); err != nil {
		return nil, err
	}
	if r.Case == 3 {
		if err := emit(r.ThroughputFigure()); err != nil {
			return nil, err
		}
		if err := emit(r.ResponseFigure()); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(&b, "most to least scalable: %v\n", r.Figure().RankByFinalY())
	for _, name := range r.Order {
		m, ok := r.Measurements[name]
		if !ok {
			continue
		}
		var infeasible, saturated []int
		for _, p := range m.Points {
			if !p.Feasible {
				infeasible = append(infeasible, p.K)
			}
			if p.Obs.Saturated {
				saturated = append(saturated, p.K)
			}
		}
		if len(infeasible) > 0 || len(saturated) > 0 {
			fmt.Fprintf(&b, "  %-8s", name)
			if len(infeasible) > 0 {
				fmt.Fprintf(&b, " efficiency band unreachable at k=%v", infeasible)
			}
			if len(saturated) > 0 {
				fmt.Fprintf(&b, " RMS node saturated at k=%v", saturated)
			}
			fmt.Fprintln(&b)
		}
	}
	return b.Bytes(), nil
}

// cpuTime is the process's user plus system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageCPU is a finished child's user plus system CPU.
func rusageCPU(ps *os.ProcessState) time.Duration {
	return ps.UserTime() + ps.SystemTime()
}

// peakRSSMB is the process's peak resident set in MB (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// sweepRun is one in-process sweep.
type sweepRun struct {
	seed   int64 // the experiment seed
	wall   time.Duration
	table  []byte
	result *experiments.Result
}

// runSweep executes the workload once for an experiment seed, in memory
// when dir is empty and with dir as its run directory otherwise.
func runSweep(w sweepWorkload, seed int64, dir string, progress func(string, scale.Point)) (sweepRun, error) {
	spec := w.spec(seed, dir)
	spec.Progress = progress
	t0 := time.Now()
	res, err := experiments.RunCaseSpec(w.id, spec)
	wall := time.Since(t0)
	if err != nil {
		return sweepRun{}, fmt.Errorf("%s sweep of seed %d: %w", w.name, seed, err)
	}
	table, err := renderCase(res, false)
	if err != nil {
		return sweepRun{}, err
	}
	return sweepRun{seed: seed, wall: wall, table: table, result: res}, nil
}

// Output references.

// refsFile holds the committed SHA-256 digests of each sweep's table,
// per workload and pool seed, written by -record.
const refsFile = "rmsbench/refs.json"

// goldenCase1 is the CLI's committed case-1 smoke output for seed 1 in
// CSV form; the experiment-seed-1 sweep of sweep-case1 must reproduce it.
const goldenCase1 = "cmd/rmscale/testdata/case1_smoke_seed1.golden"

func loadRefs() (map[string]map[string]string, error) {
	b, err := os.ReadFile(refsFile)
	if err != nil {
		return nil, fmt.Errorf("loading output references: %w", err)
	}
	var refs map[string]map[string]string
	if err := json.Unmarshal(b, &refs); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", refsFile, err)
	}
	return refs, nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

var errMismatch = errors.New("output differs from its reference")

// checkTable compares the digest of one sweep's table with the
// committed digest of its experiment seed.
func checkTable(refs map[string]map[string]string, w sweepWorkload, seed int64, got string) error {
	want, ok := refs[w.name][fmt.Sprint(seed)]
	if !ok {
		return fmt.Errorf("%s seed %d has no reference digest in %s", w.name, seed, refsFile)
	}
	if got != want {
		return fmt.Errorf("%s seed %d: %w (digest %s, want %s from %s)",
			w.name, seed, errMismatch, got[:12], want[:12], refsFile)
	}
	return nil
}

// checkGolden compares the digest of the CSV rendering of a case-1
// smoke sweep of seed 1 with the CLI's golden file.
func checkGolden(csv string) error {
	want, err := os.ReadFile(goldenCase1)
	if err != nil {
		return err
	}
	if csv != digest(want) {
		return fmt.Errorf("case 1 seed 1: %w (%s)", errMismatch, goldenCase1)
	}
	return nil
}

// sweepSample is one measured sweep, run in a process of its own so its
// CPU time and peak RSS are the sweep's alone.
type sweepSample struct {
	Seed   int64  `json:"seed"`
	WallNs int64  `json:"wall_ns"`
	Table  string `json:"table"` // digest of the table rendering
	CSV    string `json:"csv"`   // digest of the CSV rendering
	cpu    time.Duration
	rssMB  float64
}

// sweepChild is the child side: one sweep of experiment seed, reported
// as one JSON line.
func sweepChild(w sweepWorkload, seed int64) error {
	r, err := runSweep(w, seed, "", nil)
	if err != nil {
		return err
	}
	csv, err := renderCase(r.result, true)
	if err != nil {
		return err
	}
	b, err := json.Marshal(sweepSample{Seed: seed, WallNs: int64(r.wall), Table: digest(r.table), CSV: digest(csv)})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// measureSweeps runs one child process per sweep, each of the next
// experiment seed, until budget has passed (at least one).
func measureSweeps(w sweepWorkload, seeds []int64, budget time.Duration) ([]sweepSample, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []sweepSample
	t0 := time.Now()
	for len(out) == 0 || time.Since(t0) < budget {
		seed := seeds[len(out)%len(seeds)]
		cmd := exec.Command(self, "--child", "sweep", "--workload", w.name, "--seed", fmt.Sprint(seed))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s sweep of seed %d: %w", w.name, seed, err)
		}
		var s sweepSample
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s sweep of seed %d printed %q", w.name, seed, b)
		}
		s.cpu = rusageCPU(cmd.ProcessState)
		s.rssMB = float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024
		out = append(out, s)
	}
	return out, nil
}
