package stats

import (
	"fmt"
	"math"
)

// Autocorrelation returns the lag-k autocorrelation coefficients of the
// series for k = 0..maxLag, normalized so lag 0 is 1. Trace analysis uses
// it to detect periodic behavior in activity bursts (iterative programs
// show strong periodicity at the iteration length). A constant series
// returns 1 at lag 0 and 0 elsewhere.
func Autocorrelation(xs []float64, maxLag int) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	if maxLag < 0 || maxLag >= len(xs) {
		return nil, fmt.Errorf("stats: max lag %d out of [0, %d)", maxLag, len(xs))
	}
	mean := Mean(xs)
	denom := 0.0
	for _, x := range xs {
		d := x - mean
		denom += d * d
	}
	out := make([]float64, maxLag+1)
	out[0] = 1
	if denom == 0 {
		return out, nil
	}
	for lag := 1; lag <= maxLag; lag++ {
		num := 0.0
		for i := 0; i+lag < len(xs); i++ {
			num += (xs[i] - mean) * (xs[i+lag] - mean)
		}
		out[lag] = num / denom
	}
	return out, nil
}

// DominantPeriod returns the lag in [minLag, len(acf)) with the largest
// autocorrelation, or 0 when no lag has a positive coefficient — a crude
// but robust period detector for iterative traces.
func DominantPeriod(acf []float64, minLag int) int {
	if minLag < 1 {
		minLag = 1
	}
	best, bestVal := 0, 0.0
	for lag := minLag; lag < len(acf); lag++ {
		if acf[lag] > bestVal {
			best, bestVal = lag, acf[lag]
		}
	}
	if bestVal <= 0 || math.IsNaN(bestVal) {
		return 0
	}
	return best
}
