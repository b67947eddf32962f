package stats

import (
	"errors"
	"testing"
)

func TestAutocorrelation(t *testing.T) {
	// A period-4 sawtooth has a strong lag-4 peak.
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = float64(i % 4)
	}
	acf, err := Autocorrelation(xs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if acf[0] != 1 {
		t.Errorf("lag 0 = %g", acf[0])
	}
	if acf[4] < 0.8 {
		t.Errorf("lag 4 = %g, want strong", acf[4])
	}
	if acf[2] > acf[4] {
		t.Errorf("lag 2 (%g) should be below lag 4 (%g)", acf[2], acf[4])
	}
	if got := DominantPeriod(acf, 2); got != 4 {
		t.Errorf("dominant period = %d, want 4", got)
	}
}

func TestAutocorrelationErrors(t *testing.T) {
	if _, err := Autocorrelation(nil, 1); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := Autocorrelation([]float64{1, 2}, 2); err == nil {
		t.Error("lag >= len should fail")
	}
	if _, err := Autocorrelation([]float64{1, 2}, -1); err == nil {
		t.Error("negative lag should fail")
	}
}

func TestAutocorrelationConstant(t *testing.T) {
	acf, err := Autocorrelation([]float64{7, 7, 7, 7}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if acf[0] != 1 || acf[1] != 0 || acf[2] != 0 {
		t.Errorf("constant acf = %v", acf)
	}
	if got := DominantPeriod(acf, 1); got != 0 {
		t.Errorf("constant dominant period = %d", got)
	}
}
