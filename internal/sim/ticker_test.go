package sim

import (
	"reflect"
	"testing"
)

func TestTickerFiresEveryPeriod(t *testing.T) {
	k := NewKernel()
	var got []Time
	k.Every(3, func() { got = append(got, k.Now()) })
	k.Run(10)
	if !reflect.DeepEqual(got, []Time{3, 6, 9}) {
		t.Fatalf("ticks at %v, want [3 6 9]", got)
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	k := NewKernel()
	var fires []Time
	k.Every(10, func() { fires = append(fires, k.Now()) })
	k.Run(55)
	if want := []Time{10, 20, 30, 40, 50}; !reflect.DeepEqual(fires, want) {
		t.Fatalf("ticks at %v, want %v", fires, want)
	}
}

func TestTickerNonPositivePeriodIsDisabled(t *testing.T) {
	k := NewKernel()
	k.Every(0, func() { t.Fatal("period-0 ticker fired") })
	if n := k.Pending(); n != 0 {
		t.Fatalf("period-0 ticker armed %d events", n)
	}
	k.Run(100)
}

func TestTickerDisabledOnNonPositivePeriod(t *testing.T) {
	k := NewKernel()
	k.Every(-1, func() { t.Fatal("negative-period ticker fired") })
	if n := k.Pending(); n != 0 {
		t.Fatalf("negative-period ticker armed %d events", n)
	}
	k.Run(100)
}

// TestTickerRearmsAfterCallback: the next tick is scheduled after fn
// returns, so an event fn schedules for the next tick's instant fires
// before that tick (FIFO among same-time events).
func TestTickerRearmsAfterCallback(t *testing.T) {
	k := NewKernel()
	var got []string
	k.Every(2, func() {
		got = append(got, "tick")
		if len(got) == 1 {
			k.After(2, func() { got = append(got, "sibling") })
		}
	})
	k.Run(4)
	if want := []string{"tick", "sibling", "tick"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fire order %v, want %v", got, want)
	}
}
