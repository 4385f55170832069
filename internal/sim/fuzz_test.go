package sim

import (
	"testing"
)

// FuzzKernelOps decodes an arbitrary byte stream into a sequence of
// kernel operations — schedules at equal/past/future times, tickers
// (including disabled ones), steps, bounded runs, and Stop called from
// inside a callback — and asserts the kernel's core safety properties
// hold under any sequence: no panics except the documented
// schedule-in-the-past one, a monotonically non-decreasing clock, and a
// Pending count equal to the one-shots scheduled but not yet fired plus
// one armed tick per running ticker.
//
// The seed corpus lives in testdata/fuzz/FuzzKernelOps.
func FuzzKernelOps(f *testing.F) {
	// One of each opcode, a tie burst, a ticker started after a
	// schedule, and a stop-inside-callback prefix.
	f.Add([]byte{0, 1, 2, 3, 3, 4, 5, 6})
	f.Add([]byte{1, 10, 1, 10, 1, 10, 4, 4, 4})
	f.Add([]byte{6, 4, 1, 200, 5})
	f.Add([]byte{2, 50, 0, 3, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		k := NewKernel()
		k.MaxEvents = 50_000
		k.StallEvents = 10_000
		scheduled, fired, tickers := 0, 0, 0
		sched := func(at Time, fn func()) {
			k.Schedule(at, func() {
				fired++
				fn()
			})
			scheduled++
		}
		noop := func() {}
		arg := func(i int) byte {
			if i+1 < len(data) {
				return data[i+1]
			}
			return 0
		}
		last := k.Now()
		for i := 0; i < len(data); i++ {
			op := data[i] % 7
			switch op {
			case 0: // schedule at the current time (zero-delay tie)
				sched(k.Now(), noop)
			case 1: // schedule in the future
				sched(k.Now()+Time(arg(i))+1, noop)
				i++
			case 2: // schedule in the past must panic (documented model bug)
				if k.Now() > 0 {
					func() {
						defer func() {
							if recover() == nil {
								t.Fatal("schedule in the past did not panic")
							}
						}()
						k.Schedule(k.Now()-1, func() {})
					}()
				}
			case 3: // start a ticker; period 0 must leave it disabled
				period := Time(arg(i)%4) * 16
				i++
				k.Every(period, func() {})
				if period > 0 {
					tickers++
				}
			case 4:
				k.Step()
			case 5: // bounded run
				k.Run(k.Now() + Time(arg(i)))
				i++
			case 6: // stop from inside a callback
				sched(k.Now()+Time(arg(i)%8), k.Stop)
				i++
				k.Run(k.Now() + 16)
			}
			if now := k.Now(); now < last {
				t.Fatalf("clock moved backwards: %v -> %v", last, now)
			} else {
				last = now
			}
			if got, want := k.Pending(), scheduled-fired+tickers; got != want {
				t.Fatalf("Pending() = %d, want %d one-shots + %d tickers", got, scheduled-fired, tickers)
			}
		}
		// Drain the one-shots; the tickers never run dry, but they
		// advance the clock, so every one-shot is reached.
		for fired < scheduled {
			if !k.Step() {
				t.Fatalf("event list empty with %d one-shots unfired", scheduled-fired)
			}
			if now := k.Now(); now < last {
				t.Fatalf("clock moved backwards during drain: %v -> %v", last, now)
			} else {
				last = now
			}
		}
		if got := k.Pending(); got != tickers {
			t.Fatalf("Pending() = %d after the drain, want one per ticker (%d)", got, tickers)
		}
	})
}
