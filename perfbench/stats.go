package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/api"
)

// minBeyond is how many samples must lie above a reported percentile; a
// percentile with fewer is an outlier, not a measurement.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs, or an
// error when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	// The epsilon keeps 0.99*1000 from rounding up to rank 991.
	rank := max(int(math.Ceil(p*float64(n)-1e-9)), 1)
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, needs %d", p*100, n, beyond, minBeyond)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}

// median is the middle value, the mean of the two middle ones for even n.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 as Python's statistics.quantiles(xs,
// n=4) computes them (the default "exclusive" method), so the steadiness
// report reads the same as the acceptance check.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func mean(xs []float64) float64 { return ratio(sumOf(xs), float64(len(xs))) }

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest is the SHA-256 of an answer's canonical JSON rendering. The
// encoding orders map keys, so equal answers digest equally however they
// were built.
type digest [sha256.Size]byte

// answer identifies a match answer: its digest and how many subgraphs it
// holds, the latter only to make a mismatch readable.
type answer struct {
	digest    digest
	subgraphs int
}

func answerOf(matches []api.SubgraphJSON) (answer, error) {
	d, err := answerDigest(matches)
	return answer{d, len(matches)}, err
}

func answerDigest(matches []api.SubgraphJSON) (digest, error) {
	b, err := json.Marshal(matches)
	if err != nil {
		return digest{}, fmt.Errorf("encoding answer: %w", err)
	}
	return sha256.Sum256(b), nil
}
