package main

import (
	"math"
	"sort"
	"time"
)

// Summary is how every repeated measurement is reported: never a bare mean.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// Spread is the distance between the quartiles as a share of the median —
// the quantity the benchmark contract bounds.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// summarize computes the summary with the quartile rule of Python's
// statistics.quantiles(values, n=4) (the "exclusive" method), so a spread
// computed here equals the one the driver computes from the same values.
func summarize(values []float64) Summary {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: n, Min: v[0], Max: v[n-1], Median: quantile(v, 2)}
	s.Q1, s.Q3 = quantile(v, 1), quantile(v, 3)
	return s
}

// quantile returns the k'th quartile cut point of sorted v.
func quantile(v []float64, k int) float64 {
	n := len(v)
	if n == 1 {
		return v[0]
	}
	j := k * (n + 1) / 4
	j = max(1, min(j, n-1))
	delta := float64(k*(n+1) - j*4)
	return (v[j-1]*(4-delta) + v[j]*delta) / 4
}

func median(values []float64) float64 { return summarize(values).Median }

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den with an empty denominator reading as zero work done.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
