// Command setupprobe does a sweep's set-up and nothing else, so that its
// process CPU time is the set-up cost of `rmscale caseN`: Go start-up,
// the init of the packages a sweep links, and RunCaseSpec's own work
// before the pool takes a task (case lookup, spec validation,
// runner.Start with the sweep's options, task submission). The run's
// context is cancelled before the call, so the pool discards every task
// unrun and RunCaseSpec returns context.Canceled.
//
// rmsbench starts it once per set-up sample; it links only the
// experiments package, not the benchmark's HTTP client or the service.
//
//	setupprobe -case 1 -fidelity smoke -seed 7 -workers 2
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"rmscale/internal/experiments"
)

func main() {
	id := flag.Int("case", 1, "case to set up")
	fid := flag.String("fidelity", "smoke", "fidelity")
	seed := flag.Int64("seed", 1, "experiment seed")
	workers := flag.Int("workers", 2, "pool size")
	flag.Parse()
	if err := probe(*id, *fid, *seed, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "setupprobe:", err)
		os.Exit(1)
	}
}

func probe(id int, fid string, seed int64, workers int) error {
	f, err := experiments.ParseFidelity(fid)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = experiments.RunCaseSpec(id, experiments.RunSpec{Fidelity: f, Seed: seed, Workers: workers, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		return fmt.Errorf("cancelled case %d set-up returned %v, want context.Canceled", id, err)
	}
	return nil
}
