package main

import (
	"math"
	"testing"
	"time"
)

// TestSliceRate: back-to-back ops give their mean rate, and one op stalled
// for a whole slice moves the median rate by at most one slice's share.
func TestSliceRate(t *testing.T) {
	var ops []interval
	var at time.Duration
	for i := 0; i < 100; i++ {
		d := 100 * time.Millisecond
		if i == 40 {
			d = 2 * time.Second // a stall
		}
		ops = append(ops, interval{at, at + d})
		at += d
	}
	window := at
	if got, want := sliceRate(ops[:40], 4*time.Second), 10.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("steady ops: rate %v, want %v", got, want)
	}
	mean := float64(len(ops)) / window.Seconds()
	if got := sliceRate(ops, window); got < 9 || got > 10.5 {
		t.Errorf("with a stall: median slice rate %v, want about 10 (mean rate %v)", got, mean)
	}
}
