package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between order statistics; vs need not be sorted and is not modified.
// It returns NaN for an empty slice, which the result check rejects.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func mean(vs []float64) float64 {
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// timeOp runs fn until budget is spent (at least minIters times) and
// returns the mean duration of one call in microseconds. A mean, not a
// median: ORAM evictions and reshuffles fall on every few calls by
// design, and a median would leave that amortized cost out of the rung.
func timeOp(budget time.Duration, minIters int, fn func() error) (float64, error) {
	n := 0
	start := now()
	for ; n < minIters || now()-start < int64(budget); n++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return float64(now()-start) / 1e3 / float64(n), nil
}
