package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dbimadg/internal/obs"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so p50 needs 20 samples, p95 200
// and p99 1000.
const minBeyond = 10

// minSamples returns the smallest sample count that supports percentile p
// (0 < p < 1) under the percentile rule.
func minSamples(p float64) int {
	return int(math.Ceil(minBeyond / (1 - p)))
}

// samples is a set of latency observations in milliseconds. A failed
// operation is recorded as +Inf: it misses every latency limit, so it pushes
// every percentile up instead of silently leaving the set.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration) { s.add(float64(d) / float64(time.Millisecond)) }

func (s *samples) addFailed() { s.add(math.Inf(1)) }

// percentile returns the nearest-rank p-quantile (0 < p < 1) of s, or an
// error when s is too small for the percentile rule or the quantile falls
// on a failed operation.
func (s samples) percentile(p float64) (float64, error) {
	if need := minSamples(p); len(s) < need {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", p*100, need, len(s))
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	v := sorted[rank]
	if math.IsInf(v, 1) {
		return 0, fmt.Errorf("p%g falls on a failed operation", p*100)
	}
	return v, nil
}

// summary lists the sample count and every standard percentile the
// percentile rule allows, for the result stamp.
func (s samples) summary() map[string]float64 {
	out := map[string]float64{"n": float64(len(s))}
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99} {
		if v, err := s.percentile(p); err == nil {
			out[fmt.Sprintf("p%g", p*100)] = v
		}
	}
	return out
}

// median returns the middle value of vs (mean of the two middle values for
// an even count); 0 for an empty slice. It is for summarising repeated
// measurements of one quantity, not latency distributions.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func maxOf(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		m = math.Max(m, v)
	}
	return m
}

// histDelta returns the observations a program histogram gained between two
// snapshots. Min and Max come from the later snapshot and only clamp the
// interpolated quantiles.
func histDelta(before, after obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := after
	d.Count = after.Count - before.Count
	d.Sum = after.Sum - before.Sum
	d.Counts = make([]uint64, len(after.Counts))
	for i := range after.Counts {
		d.Counts[i] = after.Counts[i]
		if i < len(before.Counts) {
			d.Counts[i] -= before.Counts[i]
		}
	}
	d.Min = 0
	return d
}

// histPercentile applies the percentile rule to a program histogram delta
// and returns the quantile in the given unit.
func histPercentile(h obs.HistogramSnapshot, p float64, unit time.Duration) (float64, error) {
	if need := minSamples(p); h.Count < uint64(need) {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", p*100, need, h.Count)
	}
	return h.Quantile(p) * float64(time.Second) / float64(unit), nil
}

// clock abstracts time for the open-loop generator so its due-time and
// lateness accounting can be tested without sleeping.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// opTiming is one open-loop operation: when it was due, when the generator
// actually issued it, when it finished, and how long it would have queued
// behind earlier operations under a generator that wakes exactly on time.
type opTiming struct {
	Due, Began, Done time.Time
	Queued           time.Duration
}

// Latency is the operation's time from when it was due: the queueing its
// predecessors' service imposed on it plus its own service time. A stall is
// therefore charged to every operation scheduled behind it, while the
// generator's own wake-up delay is not (see Late).
func (t opTiming) Latency() time.Duration { return t.Queued + t.Done.Sub(t.Began) }

// Late is how far behind schedule the generator issued the operation.
func (t opTiming) Late() time.Duration { return t.Began.Sub(t.Due) }

// openLoop issues op at a fixed rate from start until end, without waiting
// for earlier operations to catch up: operation i is due at
// start + i/rate whether or not operation i-1 has finished. A generator that
// falls behind issues the overdue operations back to back. It calls done with
// each operation's timing and error.
//
// Queueing is accounted against an ideal schedule: operation i would start at
// max(due_i, ideal finish of i-1) and take its measured service time, so its
// latency is that ideal finish minus due_i.
func openLoop(clk clock, start, end time.Time, rate float64, op func(i int) error, done func(i int, t opTiming, err error)) {
	interval := time.Duration(float64(time.Second) / rate)
	idealDone := start
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return
		}
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		t := opTiming{Due: due, Began: clk.Now()}
		if idealDone.After(due) {
			t.Queued = idealDone.Sub(due)
		}
		err := op(i)
		t.Done = clk.Now()
		idealDone = due.Add(t.Latency())
		done(i, t, err)
	}
}
