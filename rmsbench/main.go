// Command rmsbench is the repository's benchmark. It runs one named
// workload with a seed, checks the program's outputs, and prints every
// end-to-end metric by name and unit; with -trace 1 it instead makes a
// traced run and prints the per-layer metrics. See README.md.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash rmsbench/run.sh --workload sweep-case3 --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// buildDir is where run.sh builds the benchmark; runs keep their
// scratch state, recorded digests and span files under it too.
const buildDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd names the metrics of an untraced run, with their units. All
// are CPU time or memory: on the reference VM the hypervisor's steal
// time swung between 2% and 35% within minutes and moved wall-clock
// latencies by a third between runs of identical inputs, while CPU time
// and RSS held. Wall-clock latencies are printed above the result line.
var endToEnd = []struct{ name, unit string }{
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer names the metrics of a traced run that every workload
// produces, with their units; workload-specific layers are printed in
// the report above the result line and kept in the span file.
var perLayer = []struct{ name, unit string }{
	{"trace.overhead_ratio", "ratio"},
	{"runtime.alloc_gb", "GB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"grid.substrate_builds", "count"},
	{"grid.substrate_ms", "ms"},
	{"routing.allpairs_ms", "ms"},
	{"grid.new_ms", "ms"},
	{"grid.run_ms", "ms"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"grid.allocs_per_event", "count"},
	{"grid.bytes_per_event", "B"},
	{"audit.overhead_ratio", "ratio"},
	{"runner.key_us", "us"},
	{"runner.put_ms", "ms"},
	{"runner.get_ms", "ms"},
	{"runner.journal_record_ms", "ms"},
	{"replay.sims", "count"},
}

var workloads = []string{sweepCase1.name, sweepCase3.name, "daemon-mix"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string // a child's directory
}

func main() {
	var o options
	var trace, spread, record int
	var child string
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.IntVar(&o.seconds, "seconds", 30, "how long a run measures")
	flag.IntVar(&trace, "trace", 0, "1 makes a traced run and prints per-layer metrics")
	flag.IntVar(&spread, "spread", 0, "run the workload this many times, one process and seed each, and print every end-to-end metric's quartiles")
	flag.IntVar(&record, "record", 0, "print reference digests of a sweep workload's table for this many seeds from -seed on")
	flag.StringVar(&child, "child", "", "internal: one sweep, or the daemon-mix store fill, in a process of its own")
	flag.StringVar(&o.dir, "dir", "", "internal: the directory the daemon-mix store fill writes")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o, spread, record, child); err != nil {
		fmt.Fprintln(os.Stderr, "rmsbench:", err)
		os.Exit(1)
	}
}

func run(o options, spread, record int, child string) error {
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	switch {
	case !known:
		return fmt.Errorf("unknown workload %q; want one of %s", o.workload, strings.Join(workloads, ", "))
	case o.seed < 0:
		return fmt.Errorf("seed %d is negative", o.seed)
	case o.seconds < 1:
		return fmt.Errorf("seconds %d must be at least 1", o.seconds)
	}
	if _, err := os.Stat(refsFile); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	switch {
	case child == "fill":
		return fillStore(o.dir, o.seed)
	case child == "sweep":
		return sweepChild(sweepByName(o.workload), o.seed)
	case child != "":
		return fmt.Errorf("unknown child mode %q", child)
	case spread > 0:
		return runSpread(o, spread)
	case record > 0:
		return runRecord(o, record)
	}
	work := filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	var res result
	var err error
	if o.workload == "daemon-mix" {
		res, err = runDaemonMix(o, work, os.Stdout)
	} else {
		res, err = runSweepWorkload(o, work, os.Stdout)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return errors.New("output check failed")
	}
	return nil
}

func sweepByName(name string) sweepWorkload {
	if name == sweepCase1.name {
		return sweepCase1
	}
	return sweepCase3
}

// measureSetups starts setupReps fresh setupprobe processes (built next
// to this binary by run.sh), each of which does the sweep's set-up for
// one experiment seed of the run, and returns the CPU time (user+sys)
// each one took, in seconds.
func measureSetups(w sweepWorkload, seeds []int64) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	probe := filepath.Join(filepath.Dir(self), "setupprobe")
	var out []float64
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(probe, "-case", fmt.Sprint(w.id), "-fidelity", w.fid.String(),
			"-seed", fmt.Sprint(seeds[i%len(seeds)]), "-workers", fmt.Sprint(sweepWorkers))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		out = append(out, rusageCPU(cmd.ProcessState).Seconds())
	}
	return out, nil
}

// runSweepWorkload measures sweeps, each of the next experiment seed of
// the run's sequence, until the run's time is spent, or makes the
// traced run.
func runSweepWorkload(o options, work string, out io.Writer) (result, error) {
	w := sweepByName(o.workload)
	refs, err := loadRefs()
	if err != nil {
		return result{}, err
	}
	if o.trace {
		return traceSweep(o, w, refs, work, out)
	}
	seeds := poolSeeds(o.seed)
	setups, err := measureSetups(w, seeds)
	if err != nil {
		return result{}, err
	}
	runs, err := measureSweeps(w, seeds, time.Duration(o.seconds)*time.Second)
	if err != nil {
		return result{}, err
	}
	failed := 0
	var walls, cpus, rss []float64
	for _, r := range runs {
		if err := checkSweep(w, refs, r); err != nil {
			fmt.Fprintln(out, "CHECK FAILED:", err)
			failed++
		}
		walls = append(walls, float64(r.WallNs)/1e6)
		cpus = append(cpus, float64(r.cpu)/1e6)
		rss = append(rss, r.rssMB)
	}
	fmt.Fprintf(out, "workload %s seed %d: %d sweeps of case %d at %s fidelity on %d workers, one process each; %d failed their check\n",
		w.name, o.seed, len(runs), w.id, w.fid, sweepWorkers, failed)
	fmt.Fprintf(out, "sweep_ms %s\n", newDist(walls))
	fmt.Fprintf(out, "sweep_cpu_ms %s\n", newDist(cpus))
	fmt.Fprintf(out, "sweep_peak_rss_mb %s\n", newDist(rss))
	fmt.Fprintf(out, "setup_s %s\n", newDist(setups))
	res := result{Correct: failed == 0, Attempted: len(runs), Failed: failed, Metrics: map[string]metric{
		"cpu_ms_per_op": {median(cpus), "ms"},
		"peak_rss_mb":   {median(rss), "MB"},
		"setup_s":       {median(setups), "s"},
	}}
	printMetrics(out, res, endToEnd)
	return res, nil
}

// checkSweep checks a sweep's table, and for experiment seed 1 of case
// 1 the CLI's golden output too.
func checkSweep(w sweepWorkload, refs map[string]map[string]string, s sweepSample) error {
	if err := checkTable(refs, w, s.Seed, s.Table); err != nil {
		return err
	}
	if w.id == 1 && s.Seed == 1 {
		return checkGolden(s.CSV)
	}
	return nil
}

// checkSweeps checks in-process sweeps and returns how many failed.
func checkSweeps(w sweepWorkload, refs map[string]map[string]string, runs []sweepRun, out io.Writer) int {
	failed := 0
	for _, r := range runs {
		csv, err := renderCase(r.result, true)
		if err == nil {
			err = checkSweep(w, refs, sweepSample{Seed: r.seed, Table: digest(r.table), CSV: digest(csv)})
		}
		if err != nil {
			fmt.Fprintln(out, "CHECK FAILED:", err)
			failed++
		}
	}
	return failed
}

// printMetrics writes one "name value unit" line per metric.
func printMetrics(out io.Writer, res result, names []struct{ name, unit string }) {
	for _, m := range names {
		fmt.Fprintf(out, "%-26s %.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
}

// runSpread runs the workload n times, one child process per run so
// each has its own peak RSS, and prints each end-to-end metric's
// quartiles and their spread as a share of the median.
func runSpread(o options, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	for i := 0; i < n; i++ {
		seed := o.seed + int64(i)
		cmd := exec.Command(self, "--workload", o.workload, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(o.seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		var res result
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run with seed %d printed no result: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("run with seed %d failed its output check", seed)
		}
		fmt.Printf("seed %d:", seed)
		for _, m := range endToEnd {
			values[m.name] = append(values[m.name], res.Metrics[m.name].Value)
			fmt.Printf(" %s=%.6g", m.name, res.Metrics[m.name].Value)
		}
		fmt.Println()
	}
	type q struct {
		Q1     float64 `json:"q1"`
		Median float64 `json:"median"`
		Q3     float64 `json:"q3"`
		Spread float64 `json:"spread"`
	}
	summary := make(map[string]q)
	fmt.Printf("%s, %d runs of %d s:\n", o.workload, n, o.seconds)
	for _, m := range endToEnd {
		q1, q2, q3 := quartiles(values[m.name])
		s := q{q1, q2, q3, (q3 - q1) / q2}
		summary[m.name] = s
		fmt.Printf("  %-16s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.2f%% %s\n",
			m.name, q2, q1, q3, 100*s.Spread, m.unit)
	}
	b, err := json.Marshal(struct {
		Workload string       `json:"workload"`
		Runs     int          `json:"runs"`
		Metrics  map[string]q `json:"metrics"`
	}{o.workload, n, summary})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runRecord prints the reference digests of n experiment seeds from
// o.seed on, in refs.json's shape, for a sweep workload.
func runRecord(o options, n int) error {
	if o.workload == "daemon-mix" {
		return errors.New("daemon-mix checks its payloads against direct executions and has no digests")
	}
	w := sweepByName(o.workload)
	digests := make(map[string]string)
	for i := 0; i < n; i++ {
		r, err := runSweep(w, o.seed+int64(i), "", nil)
		if err != nil {
			return err
		}
		digests[fmt.Sprint(r.seed)] = digest(r.table)
		fmt.Fprintf(os.Stderr, "seed %d: %s in %v\n", r.seed, digests[fmt.Sprint(r.seed)], r.wall)
	}
	b, err := json.MarshalIndent(map[string]map[string]string{w.name: digests}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
