package main

import "sort"

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice. The input is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile that still has at least ten samples
// beyond it, with its value. With n samples that is the (n-10)/n quantile:
// p90 of 100 samples, p99 of 1000. ok is false below 20 samples, where
// the rule would name a percentile under the median.
func tail(v []float64) (value, pct float64, ok bool) {
	n := len(v)
	if n < 20 {
		return 0, 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n), true
}

// worseBy is how much b is worse than a as a share of a, negative when b
// is better. better is "lower" or "higher".
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
