package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rmscale/internal/grid"
	"rmscale/internal/runner"
	"rmscale/internal/scale"
	"rmscale/internal/service"
)

// memDelta records the allocation and GC cost between two snapshots.
func memDelta(l *layers, m0, m1 runtime.MemStats) {
	l.count("runtime.alloc_gb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e9)
	l.count("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC))
	l.count("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
}

// layerResult reports the traced run: every sample and counter in the
// report, self time per span name, the span file, and the per-layer
// metrics as the result.
func layerResult(o options, tr *tracer, l *layers, attempted, failed int, out io.Writer) (result, error) {
	l.finish()
	for _, k := range sortedKeys(l.samples) {
		fmt.Fprintf(out, "%-34s %s\n", k, l.dist(k))
	}
	for _, k := range sortedKeys(l.counts) {
		fmt.Fprintf(out, "%-34s %.6g\n", k, l.counts[k])
	}
	spans := tr.snapshot()
	self := selfByName(spans)
	fmt.Fprintln(out, "self time by span (ms):")
	for _, k := range sortedKeys(self) {
		fmt.Fprintf(out, "  %-32s %.6g\n", k, self[k])
	}
	path, err := writeSpans(filepath.Join(buildDir, "traces"), o.workload, o.seed, spans)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(spans), path)

	// A counter reports its total, a timing its median.
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		v, ok := l.counts[m.name]
		if !ok {
			v = median(l.samples[m.name])
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	return res, nil
}

// traceSweep is a sweep workload's traced run. Phase 1 runs sweeps
// with the Progress hook after as many untraced ones of the same seeds,
// all with a run directory, for the tracing overhead; phase 2 replays
// the first traced sweep's tuned points layer by layer.
func traceSweep(o options, w sweepWorkload, refs map[string]map[string]string, work string, out io.Writer) (result, error) {
	half := time.Duration(o.seconds) * time.Second / 2
	seeds := poolSeeds(o.seed)
	plain, err := sweepsFor(w, seeds, work, half, nil)
	if err != nil {
		return result{}, err
	}
	tr, l := newTracer(), newLayers()
	hook := func(i int) (func(string, scale.Point), func(sweepRun, string) error) {
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		plog := newProgressLog(time.Now())
		root := tr.begin("sweep", 0, fmt.Sprintf("seed=%d", seeds[i%len(seeds)]))
		return plog.record, func(r sweepRun, dir string) error {
			end := time.Now()
			tr.end(root)
			if i > 0 {
				return nil
			}
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			memDelta(l, m0, m1)
			plog.analyse(end, tr, root, l)
			hits, misses, err := readRunstate(dir)
			if err != nil {
				return err
			}
			l.count("runner.cache_lookups", float64(hits+misses))
			if hits+misses > 0 {
				l.count("runner.cache_hit_ratio", float64(hits)/float64(hits+misses))
			}
			l.count("runner.ckpt_dir_mb", dirMB(dir))
			return nil
		}
	}
	traced, err := sweepsFor(w, seeds, work, half, hook)
	if err != nil {
		return result{}, err
	}
	if err := replaySweep(w, traced[0].seed, traced[0].result, filepath.Join(work, "replay"), tr, l); err != nil {
		return result{}, err
	}
	all := append(append([]sweepRun(nil), plain...), traced...)
	failed := checkSweeps(w, refs, all, out)

	wall := func(rs []sweepRun) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, float64(r.wall)/1e6)
		}
		return median(xs)
	}
	pw, tw := wall(plain), wall(traced)
	l.count("trace.overhead_ratio", tw/pw)
	fmt.Fprintf(out, "workload %s seed %d, traced: %d untraced and %d traced sweeps, %d failed their check; replay of seed %d: fidelity ok\n",
		w.name, o.seed, len(plain), len(traced), failed, traced[0].seed)
	fmt.Fprintf(out, "trace overhead: sweep p50 %.6g ms traced vs %.6g ms untraced (%+.6g ms)\n", tw, pw, tw-pw)
	return layerResult(o, tr, l, len(all), failed, out)
}

// sweepsFor runs in-process sweeps, one per seed in order, until budget
// has passed (at least one). Each sweep gets a fresh run directory, so
// traced and untraced sweeps both pay the runner's disk cache and
// journal and differ only in the hooks. A non-nil hook is called before
// each sweep: the sweep then reports to the returned Progress callback,
// and the returned done function sees the finished sweep and its
// directory before the directory is removed.
func sweepsFor(w sweepWorkload, seeds []int64, work string, budget time.Duration,
	hook func(i int) (func(string, scale.Point), func(sweepRun, string) error)) ([]sweepRun, error) {

	var runs []sweepRun
	t0 := time.Now()
	for len(runs) == 0 || time.Since(t0) < budget {
		i := len(runs)
		var progress func(string, scale.Point)
		var done func(sweepRun, string) error
		if hook != nil {
			progress, done = hook(i)
		}
		dir := filepath.Join(work, fmt.Sprintf("sweep-%d", i))
		r, err := runSweep(w, seeds[i%len(seeds)], dir, progress)
		if err != nil {
			return nil, err
		}
		if done != nil {
			if err := done(r, dir); err != nil {
				return nil, err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// runDaemonMix is the daemon-mix workload, untraced or traced.
func runDaemonMix(o options, work string, out io.Writer) (result, error) {
	dir := filepath.Join(work, "daemon")
	if o.trace {
		if err := fillStore(dir, o.seed); err != nil {
			return result{}, err
		}
		return traceDaemon(o, dir, work, out)
	}
	if err := fillInChild(o, dir); err != nil {
		return result{}, err
	}
	var setups []float64
	var ld *liveDaemon
	for i := 0; i < setupReps; i++ {
		c0 := cpuTime()
		d, err := openDaemon(dir, nil, nil)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
		if i < setupReps-1 {
			if err := d.close(); err != nil {
				return result{}, err
			}
		} else {
			ld = d
		}
	}
	plan := planMix(o.seed, time.Duration(o.seconds)*time.Second, 0)
	wr, err := runWindow(ld, plan, false)
	if cerr := ld.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	_, failed := reportWindow(wr, out)
	if err := checkWindow(wr); err != nil {
		fmt.Fprintln(out, "CHECK FAILED:", err)
		failed++
	}
	fmt.Fprintf(out, "setup_s %s\n", newDist(setups))
	res := result{Correct: failed == 0, Attempted: len(wr.arrivals), Failed: failed, Metrics: map[string]metric{
		"cpu_ms_per_op": {float64(wr.cpu) / 1e6 / float64(len(wr.arrivals)), "ms"},
		"peak_rss_mb":   {wr.rssMB, "MB"},
		"setup_s":       {median(setups), "s"},
	}}
	printMetrics(out, res, endToEnd)
	return res, nil
}

// fillInChild fills the store at dir in a child process of its own, so
// the fill's allocations stay out of the measured process's peak RSS.
func fillInChild(o options, dir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "--child", "fill", "--workload", o.workload, "--seed", fmt.Sprint(o.seed), "--dir", dir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("filling the store: %w", err)
	}
	return nil
}

// reportWindow prints the window's latency classes and returns all
// successful latencies and the failure count.
func reportWindow(wr windowResult, out io.Writer) ([]float64, int) {
	all, fresh, hit, late, failed := wr.latencies()
	ad := newDist(all)
	fmt.Fprintf(out, "daemon-mix: %d arrivals at %g/s over %d connections, %d fresh; %d failed\n",
		len(wr.arrivals), daemonRate, wr.conns, len(fresh), failed)
	if err := wr.firstErr(); err != nil {
		fmt.Fprintln(out, "first failure:", err)
	}
	fmt.Fprintf(out, "result_ms (fresh spec, due to fetched) %s\n", newDist(fresh))
	fmt.Fprintf(out, "hit_ms (stored spec, due to fetched)   %s\n", newDist(hit))
	fmt.Fprintf(out, "late_ms (generator behind schedule)    %s\n", newDist(late))
	verdict := "met"
	if failed > 0 || ad.Pct(99) > daemonP99LimitMs {
		verdict = "missed"
	}
	fmt.Fprintf(out, "p99 limit %g ms: %s (p99 %.4g ms)\n", daemonP99LimitMs, verdict, ad.Pct(99))
	return all, failed
}

// traceDaemon is daemon-mix's traced run: an untraced window, then a
// window on a daemon whose Exec, FS and Handler are wrapped, then a
// replay of that window's fresh specs through the engine layers.
func traceDaemon(o options, dir, work string, out io.Writer) (result, error) {
	half := time.Duration(o.seconds) * time.Second / 2
	ld, err := openDaemon(dir, nil, nil)
	if err != nil {
		return result{}, err
	}
	plain, err := runWindow(ld, planMix(o.seed, half, 0), false)
	if cerr := ld.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	plainAll, failed := reportWindow(plain, out)
	if err := checkWindow(plain); err != nil {
		fmt.Fprintln(out, "CHECK FAILED:", err)
		failed++
	}

	tr, l := newTracer(), newLayers()
	h := &hooks{tr: tr, l: &syncLayers{l: l}}
	fs := &timedFS{h: h}
	ld, err = openDaemon(dir, h, fs)
	if err != nil {
		return result{}, err
	}
	h.l.count("service.recovery_reads", float64(fs.reads.Load()))
	plan := planMix(o.seed, half, 100_000)
	wr, err := runWindow(ld, plan, true)
	if cerr := ld.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	tracedAll, f := reportWindow(wr, out)
	failed += f
	if err := checkWindow(wr); err != nil {
		fmt.Fprintln(out, "CHECK FAILED:", err)
		failed++
	}
	memDelta(l, wr.mem0, wr.mem1)
	st := wr.stats
	l.count("service.queue_depth_max", float64(st.MaxQueueDepth))
	l.count("service.rejected", float64(st.Rejected))
	if st.Submitted > 0 {
		l.count("service.dedup_ratio", float64(st.DedupHits())/float64(st.Submitted))
	}
	l.count("client.conns", float64(wr.conns))
	for _, a := range wr.arrivals {
		l.ms("client.late_ms", a.Late())
		tr.add("client.request", 0, "", wr.epoch.Add(a.Due), wr.epoch.Add(a.End))
	}

	if err := replayDaemon(wr, filepath.Join(work, "replay"), tr, l); err != nil {
		return result{}, err
	}
	pw, tw := median(plainAll), median(tracedAll)
	l.count("trace.overhead_ratio", tw/pw)
	fmt.Fprintf(out, "trace overhead: request p50 %.6g ms traced vs %.6g ms untraced (%+.6g ms); replay fidelity ok\n", tw, pw, tw-pw)
	return layerResult(o, tr, l, len(plain.arrivals)+len(wr.arrivals), failed, out)
}

// replayDaemon re-runs the traced window's distinct fresh specs through
// the engine layers the executor uses, and checks each against the
// payload the daemon served. The first ten double as the audit subset.
func replayDaemon(wr windowResult, dir string, tr *tracer, l *layers) error {
	sr, err := newSimReplay(tr, l, filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	j, _, err := runner.OpenJournal(dir, "rmsbench replay")
	if err != nil {
		return err
	}
	defer j.Close()
	root := tr.begin("replay", 0, "daemon-mix")
	defer tr.end(root)
	seen := make(map[string]bool)
	for i, spec := range wr.plan.specs {
		if !wr.plan.fresh[i] {
			continue
		}
		id, err := spec.ID()
		if err != nil {
			return err
		}
		if seen[id] {
			continue
		}
		seen[id] = true
		ps := tr.begin("replay.spec", root, id)
		cfg := grid.DefaultConfig()
		cfg.Seed = spec.Seed
		if spec.Horizon > 0 {
			cfg.Horizon = spec.Horizon
			cfg.Drain = spec.Horizon / 4
			cfg.Workload.Horizon = spec.Horizon
		}
		keyParts := []any{"rmscaled-spec/v1", spec}
		var sum grid.Summary
		if len(seen) <= 10 {
			sum, err = sr.auditPair(ps, id, spec.Model, cfg, keyParts)
		} else {
			sum, _, err = sr.run(ps, id, spec.Model, cfg, keyParts, true)
		}
		if err != nil {
			return fmt.Errorf("replaying %s: %w", spec, err)
		}
		b, err := json.Marshal(service.Result{Spec: spec, Summary: &sum})
		if err != nil {
			return err
		}
		if string(append(b, '\n')) != string(wr.client.got[id]) {
			return fmt.Errorf("replay fidelity: %s replayed to a payload that differs from the served one", spec)
		}
		l.count("replay.sims", 1)
		if err := sr.timed("runner.journal_record", ps, id, func() error { return j.Record(id, spec) }); err != nil {
			return err
		}
		tr.end(ps)
	}
	return nil
}

// dirMB is the total size of the regular files under dir, in MB.
func dirMB(dir string) float64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return float64(n) / (1 << 20)
}

// readRunstate reads the runner's runstate.json cache counters.
func readRunstate(dir string) (hits, misses int64, err error) {
	f, err := os.Open(filepath.Join(dir, "runstate.json"))
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	var s struct {
		Hits   int64 `json:"cache_hits"`
		Misses int64 `json:"cache_misses"`
	}
	err = json.NewDecoder(bufio.NewReader(f)).Decode(&s)
	return s.Hits, s.Misses, err
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
