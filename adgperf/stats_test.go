package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		p    float64
		need int
	}{{0.5, 20}, {0.95, 200}, {0.99, 1000}}
	for _, c := range cases {
		if got := minSamples(c.p); got != c.need {
			t.Errorf("minSamples(%g) = %d, want %d", c.p, got, c.need)
		}
		s := make(samples, c.need-1)
		for i := range s {
			s[i] = float64(i + 1)
		}
		if _, err := s.percentile(c.p); err == nil {
			t.Errorf("p%g accepted %d samples, want at least %d", c.p*100, len(s), c.need)
		}
		s.add(float64(c.need))
		v, err := s.percentile(c.p)
		if err != nil {
			t.Fatalf("p%g with %d samples: %v", c.p*100, len(s), err)
		}
		// Nearest rank over 1..need leaves exactly minBeyond samples above.
		if beyond := c.need - int(v); beyond != minBeyond {
			t.Errorf("p%g = %g leaves %d samples beyond, want %d", c.p*100, v, beyond, minBeyond)
		}
	}
}

func TestPercentileCountsFailures(t *testing.T) {
	s := make(samples, 0, 20)
	for i := 0; i < 19; i++ {
		s.add(1)
	}
	s.addFailed()
	if v, err := s.percentile(0.5); err != nil || v != 1 {
		t.Fatalf("median with one failure = %v, %v; want 1", v, err)
	}
	for i := 0; i < 20; i++ {
		s.addFailed()
	}
	if _, err := s.percentile(0.5); err == nil {
		t.Fatal("median landing on failed operations was reported as a latency")
	}
}

// fakeClock advances only when the generator sleeps or an operation runs.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func runFake(t *testing.T, rate float64, n int, wake time.Duration, service func(i int) time.Duration) []opTiming {
	t.Helper()
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.now
	end := start.Add(time.Duration(float64(n) / rate * float64(time.Second)))
	var out []opTiming
	sleeper := &overshootClock{fakeClock: clk, overshoot: wake}
	openLoop(sleeper, start, end, rate, func(i int) error {
		clk.now = clk.now.Add(service(i))
		return nil
	}, func(_ int, ti opTiming, _ error) { out = append(out, ti) })
	if len(out) != n {
		t.Fatalf("issued %d operations, want %d", len(out), n)
	}
	return out
}

// overshootClock wakes every sleep late by a fixed amount, like a coarse
// timer.
type overshootClock struct {
	*fakeClock
	overshoot time.Duration
}

func (c *overshootClock) Sleep(d time.Duration) { c.fakeClock.Sleep(d + c.overshoot) }

func TestOpenLoopOnSchedule(t *testing.T) {
	// 100 ops/s, 1 ms of service each: the generator is never behind.
	ops := runFake(t, 100, 50, 0, func(int) time.Duration { return time.Millisecond })
	for i, op := range ops {
		if want := time.Unix(0, 0).Add(time.Duration(i) * 10 * time.Millisecond); !op.Due.Equal(want) {
			t.Fatalf("op %d due %v, want %v", i, op.Due, want)
		}
		if op.Latency() != time.Millisecond || op.Late() != 0 {
			t.Fatalf("op %d: latency %v late %v, want 1ms and 0", i, op.Latency(), op.Late())
		}
	}
}

func TestOpenLoopStallChargesQueuedOps(t *testing.T) {
	// 100 ops/s (10 ms apart), 1 ms service, but op 3 stalls for 35 ms. The
	// three ops due during the stall are issued late and timed from their
	// due time, as a closed loop would not.
	ops := runFake(t, 100, 10, 0, func(i int) time.Duration {
		if i == 3 {
			return 35 * time.Millisecond
		}
		return time.Millisecond
	})
	want := []time.Duration{1, 1, 1, 35, 26, 17, 8, 1, 1, 1}
	for i, op := range ops {
		if got := op.Latency(); got != want[i]*time.Millisecond {
			t.Errorf("op %d latency %v, want %v", i, got, want[i]*time.Millisecond)
		}
	}
	if late := ops[4].Late(); late != 25*time.Millisecond {
		t.Errorf("op 4 issued %v late, want 25ms", late)
	}
	if late := ops[7].Late(); late != 0 {
		t.Errorf("op 7 issued %v late, want on time after catching up", late)
	}
}

func TestOpenLoopTimerOvershootIsLatenessNotLatency(t *testing.T) {
	// Every sleep wakes 2 ms late: that is the generator's lateness, while
	// each 1 ms operation still measures 1 ms.
	ops := runFake(t, 100, 20, 2*time.Millisecond, func(int) time.Duration { return time.Millisecond })
	for i, op := range ops[1:] {
		if op.Late() != 2*time.Millisecond {
			t.Fatalf("op %d late %v, want 2ms", i+1, op.Late())
		}
		if op.Latency() != time.Millisecond {
			t.Fatalf("op %d latency %v, want 1ms", i+1, op.Latency())
		}
	}
}

func TestOpenLoopBehindGeneratorIssuesBackToBack(t *testing.T) {
	// Service (15 ms) exceeds the interval (10 ms): the generator falls
	// further behind with every op and the queueing grows linearly.
	ops := runFake(t, 100, 5, 0, func(int) time.Duration { return 15 * time.Millisecond })
	for i, op := range ops {
		wantLat := time.Duration(15+5*i) * time.Millisecond
		if op.Latency() != wantLat || op.Late() != time.Duration(5*i)*time.Millisecond {
			t.Errorf("op %d: latency %v late %v, want %v and %v", i, op.Latency(), op.Late(), wantLat, time.Duration(5*i)*time.Millisecond)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if m := median(nil); m != 0 || math.IsNaN(m) {
		t.Errorf("median empty = %g", m)
	}
}
