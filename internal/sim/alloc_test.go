package sim

import (
	"testing"
)

// Allocation-regression tests: the kernel's hot paths are contractually
// allocation-free in steady state (DESIGN.md, "Kernel performance").
// These pin the contract with testing.AllocsPerRun so a regression
// fails `go test`, machine-independently, instead of waiting for
// someone to read a benchmark.

// TestScheduleFireZeroAlloc: once the heap's backing array has grown,
// one schedule→fire cycle performs zero heap allocations.
func TestScheduleFireZeroAlloc(t *testing.T) {
	k := NewKernel()
	var fn func()
	fn = func() { k.After(1, fn) }
	k.After(1, fn)
	for k.Processed() < 64 { // grow the heap's backing array
		k.Step()
	}
	if allocs := testing.AllocsPerRun(200, func() { k.Step() }); allocs != 0 {
		t.Errorf("steady-state schedule->fire cycle allocates %.1f times, want 0", allocs)
	}
}

// TestTickerRearmZeroAlloc: a ticker tick (fire + rearm) allocates
// nothing once warm — the rearm closure is built once by Every.
func TestTickerRearmZeroAlloc(t *testing.T) {
	k := NewKernel()
	n := 0
	k.Every(1, func() { n++ })
	for k.Processed() < 64 {
		k.Step()
	}
	if allocs := testing.AllocsPerRun(200, func() { k.Step() }); allocs != 0 {
		t.Errorf("ticker rearm cycle allocates %.1f times, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("ticker never fired")
	}
}
