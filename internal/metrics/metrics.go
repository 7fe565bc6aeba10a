// Package metrics provides the means the paper's evaluation summarises
// with: harmonic and arithmetic means across workloads, and system
// throughput (STP) for multi-program workloads.
package metrics

import "fmt"

// HarmonicMean returns the harmonic mean of the values. Zero or negative
// entries make the harmonic mean undefined; they are rejected with an error.
func HarmonicMean(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, fmt.Errorf("metrics: harmonic mean of no values")
	}
	var sum float64
	for _, v := range values {
		if v <= 0 {
			return 0, fmt.Errorf("metrics: harmonic mean undefined for non-positive value %v", v)
		}
		sum += 1 / v
	}
	return float64(len(values)) / sum, nil
}

// ArithmeticMean returns the arithmetic mean of the values (0 for empty).
func ArithmeticMean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// STP computes system throughput for a multi-program workload following
// Eyerman and Eeckhout: the sum over applications of
// IPC_multiprogram / IPC_singleprogram.
func STP(multiIPC, aloneIPC []float64) (float64, error) {
	if len(multiIPC) != len(aloneIPC) || len(multiIPC) == 0 {
		return 0, fmt.Errorf("metrics: STP needs matching non-empty IPC vectors (%d vs %d)",
			len(multiIPC), len(aloneIPC))
	}
	var stp float64
	for i := range multiIPC {
		if aloneIPC[i] <= 0 {
			return 0, fmt.Errorf("metrics: STP undefined for non-positive single-program IPC %v", aloneIPC[i])
		}
		stp += multiIPC[i] / aloneIPC[i]
	}
	return stp, nil
}
