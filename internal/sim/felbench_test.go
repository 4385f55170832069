package sim

import "testing"

// BenchmarkKernel is the canonical kernel hot-path benchmark: a
// steady-state population of self-rescheduling events, the pattern the
// grid engine drives (tickers, Exec chains, message deliveries keep a
// roughly constant number of events in flight while millions fire).
// allocs/op here is allocs per event processed, the headline number the
// perfbench baseline pins.
func BenchmarkKernel(b *testing.B) {
	const inflight = 512
	b.ReportAllocs()
	k := NewKernel()
	fns := make([]func(), inflight)
	for i := range fns {
		i := i
		fns[i] = func() { k.After(Time(1+i%7), fns[i]) }
	}
	for i, fn := range fns {
		k.Schedule(Time(i%7), fn)
	}
	b.ResetTimer()
	for k.Processed() < uint64(b.N) {
		k.Step()
	}
}

// BenchmarkKernelBulk is the cold-start pattern: a large batch scheduled
// up front (job arrivals), then drained in time order.
func BenchmarkKernelBulk(b *testing.B) {
	const batch = 4096
	b.ReportAllocs()
	noop := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for j := 0; j < batch; j++ {
			k.Schedule(Time(j%401), noop)
		}
		k.Run(Infinity)
	}
}

// BenchmarkTickerCycle measures one full ticker period: the rearm path
// must not allocate once the heap's backing array has grown.
func BenchmarkTickerCycle(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	ticks := 0
	k.Every(1, func() { ticks++ })
	b.ResetTimer()
	for ticks < b.N {
		k.Step()
	}
}
