package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// samples holds per-call latencies in nanoseconds.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, int64(d)) }

// quantile returns the nearest-rank q-quantile in nanoseconds; the slice is
// sorted in place.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)])
}

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += float64(v)
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// median of a few float64 values (setup repetitions).
func median(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// liveHeap returns the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

const (
	us = 1e3 // nanoseconds per microsecond
	ms = 1e6
	s  = 1e9
)

// timeline is the timed phase's update calls: when each completed, as an
// offset from the start of the phase, and how long it took.
type timeline struct {
	at  []int64
	lat samples
}

func (t *timeline) add(at, lat time.Duration) {
	t.at = append(t.at, int64(at))
	t.lat = append(t.lat, int64(lat))
}

func (t *timeline) merge(o *timeline) {
	t.at = append(t.at, o.at...)
	t.lat = append(t.lat, o.lat...)
}

// windowed cuts the phase's wall time into equal windows, one per
// minPerWindow calls and at most maxWindows, and returns the medians across
// windows of the completion rate (calls/s) and of the p50 and p99 latency
// (ns). Medians over windows keep a burst of interference from a
// neighbouring tenant, confined to a few windows, out of the figures.
func (t *timeline) windowed(wall time.Duration) (rate, p50, p99 float64, windows int) {
	const minPerWindow, maxWindows = 1000, 10
	windows = min(max(len(t.at)/minPerWindow, 1), maxWindows)
	width := float64(wall) / float64(windows)
	per := make([]samples, windows)
	for i, at := range t.at {
		w := min(int(float64(at)/width), windows-1)
		per[w] = append(per[w], t.lat[i])
	}
	var rates, q50, q99 []float64
	for _, s := range per {
		rates = append(rates, float64(len(s))/(width/1e9))
		if len(s) > 0 {
			q50 = append(q50, s.quantile(0.50))
			q99 = append(q99, s.quantile(0.99))
		}
	}
	return median(rates), median(q50), median(q99), windows
}
