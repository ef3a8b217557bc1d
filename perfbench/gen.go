package main

import "math"

// The inputs are counter-based: every value is a pure function of (seed,
// stream, row, column), so a check recomputes any element without asking the
// program, in any order and on any subset of rows.

const (
	streamX    = 1 // features for correlation, k-means and logistic
	streamY    = 2 // label noise
	streamG    = 3 // GMM features
	streamServ = 4 // the matrix each serving tenant loads
)

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// unif returns a uniform value in [0, 1) with 53 random bits.
func unif(seed int64, stream, row int64, col int) float64 {
	z := mix(uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)<<56)
	z = mix(z + uint64(row)*0xD1B54A32D192ED03 + uint64(col)*0xABC98388FB8FAC03)
	return float64(z>>11) / (1 << 53)
}

// xVal is element (i, j) of the fit feature matrix: centred uniform values,
// with column scales 1, 1.5, 2 and 2.5 in turn so the logistic Hessian is
// mildly ill-conditioned. Centring keeps L-BFGS taking unit steps, so every
// seed runs the same number of passes.
func xVal(seed, i int64, j int) float64 {
	return (unif(seed, streamX, i, j) - 0.5) * (1 + float64(j%4)/2)
}

// trueW is the planted logistic direction: ±1 alternating.
func trueW(j int) float64 {
	if j%2 == 0 {
		return 1
	}
	return -1
}

// yVal is the 0/1 label of row i: the planted direction plus standard
// logistic noise, so the labels follow a logistic model with finite
// maximum-likelihood weights.
func yVal(seed, i int64, p int) float64 {
	var z float64
	for j := 0; j < p; j++ {
		z += trueW(j) * xVal(seed, i, j)
	}
	u := unif(seed, streamY, i, 0)
	z += math.Log(u / (1 - u))
	if z > 0 {
		return 1
	}
	return 0
}

// gVal is element (i, j) of the GMM input: four shifted blobs, row i in blob
// i mod 4, each blob lifted along its own pair of columns.
func gVal(seed, i int64, j int) float64 {
	v := unif(seed, streamG, i, j)
	if int64(j/2)%4 == i%4 {
		v += 2
	}
	return v
}

// servVal is element (i, j) of the matrix serving tenant t loads. Values are
// rounded to 1/1024 so their CSV text is short and parses back exactly.
func servVal(seed int64, t int, i int64, j int) float64 {
	return math.Floor(unif(seed, streamServ+int64(t)<<8, i, j)*1024*8) / 1024
}
