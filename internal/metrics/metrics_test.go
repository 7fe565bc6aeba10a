package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeans(t *testing.T) {
	hm, err := HarmonicMean([]float64{1, 2, 4})
	if err != nil || !approx(hm, 3/(1+0.5+0.25)) {
		t.Errorf("HarmonicMean = %v, %v", hm, err)
	}
	if _, err := HarmonicMean(nil); err == nil {
		t.Error("empty harmonic mean should error")
	}
	if _, err := HarmonicMean([]float64{1, 0}); err == nil {
		t.Error("harmonic mean with zero should error")
	}
	if ArithmeticMean([]float64{1, 2, 3}) != 2 || ArithmeticMean(nil) != 0 {
		t.Error("ArithmeticMean mismatch")
	}
}

func TestHarmonicLEQArithmeticProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		vals := []float64{float64(a)/16 + 0.1, float64(b)/16 + 0.1, float64(c)/16 + 0.1}
		hm, err := HarmonicMean(vals)
		if err != nil {
			return false
		}
		return hm <= ArithmeticMean(vals)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSTPAndANTT(t *testing.T) {
	stp, err := STP([]float64{0.5, 0.8}, []float64{1.0, 1.0})
	if err != nil || !approx(stp, 1.3) {
		t.Errorf("STP = %v, %v", stp, err)
	}
	if _, err := STP([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := STP([]float64{1}, []float64{0}); err == nil {
		t.Error("zero alone-IPC should error")
	}
}
