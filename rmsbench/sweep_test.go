package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"testing"

	"rmscale/internal/experiments"
)

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x01
	return out
}

// The output checks reject a table that differs from its reference in a
// single byte: the committed digest of its seed, and for case 1 seed 1
// the CLI's golden file.
func TestCheckRejectsFlippedByte(t *testing.T) {
	if err := os.Chdir(".."); err != nil { // the checks read repository files
		t.Fatal(err)
	}
	defer os.Chdir("rmsbench")

	golden, err := os.ReadFile(goldenCase1)
	if err != nil {
		t.Fatal(err)
	}
	table := []byte("Figure 4: G(k)\nk  CENTRAL\n1  62.85\n")
	refs := map[string]map[string]string{sweepCase3.name: {"2": digest(table)}}
	if err := checkTable(refs, sweepCase3, 2, digest(table)); err != nil {
		t.Fatalf("the reference itself fails: %v", err)
	}
	if err := checkGolden(digest(golden)); err != nil {
		t.Fatalf("the golden itself fails: %v", err)
	}
	for _, i := range []int{0, len(table) / 2, len(table) - 1} {
		if err := checkTable(refs, sweepCase3, 2, digest(flipByte(table, i))); !errors.Is(err, errMismatch) {
			t.Errorf("digest check, byte %d flipped: err = %v, want a mismatch", i, err)
		}
	}
	for _, i := range []int{0, len(golden) / 2, len(golden) - 1} {
		if err := checkGolden(digest(flipByte(golden, i))); !errors.Is(err, errMismatch) {
			t.Errorf("golden check, byte %d flipped: err = %v, want a mismatch", i, err)
		}
	}
	if err := checkTable(refs, sweepCase3, 3, digest(table)); err == nil {
		t.Error("a seed without a reference digest passed its check")
	}
}

// Every experiment seed a run can draw has a committed digest.
func TestRefsCoverThePool(t *testing.T) {
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("rmsbench")
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []sweepWorkload{sweepCase1, sweepCase3} {
		for _, s := range poolSeeds(1) {
			if _, ok := refs[w.name][fmt.Sprint(s)]; !ok {
				t.Errorf("%s: pool seed %d has no digest", w.name, s)
			}
		}
	}
}

// The replay's mirror of the case configs must stay in step with the
// fidelities it covers.
func TestMirrorCoversSweepWorkloads(t *testing.T) {
	for _, w := range []sweepWorkload{sweepCase1, sweepCase3} {
		cfg, err := mirrorConfig(w.id, w.fid, 1, 2, []float64{40, 6, 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: mirrored config invalid: %v", w.name, err)
		}
	}
	if _, err := mirrorConfig(2, experiments.Quick, 1, 1, []float64{40, 6, 1}); err == nil {
		t.Error("mirrorConfig accepted case 2, which it does not mirror")
	}
}

// A smoke case-3 sweep replays bit for bit through the mirrored
// configs, and the replay records every layer it times.
func TestReplayFidelitySmoke(t *testing.T) {
	r, err := runSweep(sweepCase3, 2, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	l := newLayers()
	if err := replaySweep(sweepCase3, 2, r.result, t.TempDir(), newTracer(), l); err != nil {
		t.Fatal(err)
	}
	l.finish()
	for _, m := range perLayer {
		if m.name == "trace.overhead_ratio" || m.name[:8] == "runtime." {
			continue // set by the traced run around the replay
		}
		_, counted := l.counts[m.name]
		if !counted && len(l.samples[m.name]) == 0 {
			t.Errorf("replay recorded nothing for %s", m.name)
		}
	}
}

// Experiment seed 1 of sweep-case1 reproduces the CLI's golden
// output and its committed digest.
func TestCase1Seed1MatchesGolden(t *testing.T) {
	r, err := runSweep(sweepCase1, 1, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("rmsbench")
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	if failed := checkSweeps(sweepCase1, refs, []sweepRun{r}, io.Discard); failed != 0 {
		t.Fatalf("%d checks failed", failed)
	}
}
