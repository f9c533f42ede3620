package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// dist is an exact distribution over raw samples. Quantiles are read off
// the sorted samples, never from histogram buckets, so a 10% change in a
// latency shows as a 10% change in the number.
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(x float64) {
	d.xs = append(d.xs, x)
	d.sorted = false
}

func (d *dist) addDur(v time.Duration) { d.add(float64(v) / float64(time.Millisecond)) }

func (d *dist) merge(o *dist) {
	d.xs = append(d.xs, o.xs...)
	d.sorted = false
}

func (d *dist) n() int { return len(d.xs) }

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank q-quantile: the smallest sample with at
// least a q share of the samples at or below it. Zero samples give 0.
func (d *dist) quantile(q float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	return d.xs[rank(q, len(d.xs))-1]
}

// beyond is the number of samples strictly above the q-quantile's rank:
// the count the "at least ten samples beyond the reported percentile" rule
// is judged on.
func (d *dist) beyond(q float64) int {
	if len(d.xs) == 0 {
		return 0
	}
	return len(d.xs) - rank(q, len(d.xs))
}

// median of a small slice of set-up times; the caller's slice is not
// reordered.
func median(xs []float64) float64 {
	d := dist{xs: append([]float64(nil), xs...)}
	return d.quantile(0.5)
}

// describe renders "base_p50_ms = 1.234 ms, base_p99_ms = 5.678 ms (n=1000,
// 10 beyond p99)" for unit "ms".
func (d *dist) describe(base, unit string) string {
	return fmt.Sprintf("%s_p50_%s = %.4g %s, %s_p99_%s = %.4g %s (n=%d, %d beyond p99)",
		base, unit, d.quantile(0.5), unit, base, unit, d.quantile(0.99), unit, d.n(), d.beyond(0.99))
}
