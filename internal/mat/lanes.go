package mat

import (
	"math"

	"auditherm/internal/obs"
)

// laneKernel advances width power-iteration restarts at once. The
// lanes are stored interleaved, four to a quad: a block of n-entry
// vectors is n rows of width/4 quads, and entry j of lane l is
// x[j*width/4+l/4][l%4]. So a matrix entry meets every lane's copy of
// its column in one contiguous run.
type laneKernel struct {
	width int
	// mulVec sets every lane of y to a·x, where a is the m x n top
	// (row-major) stacked over the implicit rows [unit·I 0]: y[i][l] =
	// Σ_j top[i][j]·x[j][l], summed with j ascending from +0, and
	// y[m+k][l] = unit·x[k][l].
	mulVec func(top []float64, m, n int, unit float64, x, y [][4]float64)
	// normalize runs Norm2's steps on every lane of the n-entry block y
	// and divides the lane by its norm, which it writes to lam (one row
	// of quads). A lane whose largest magnitude is 0 gets norm 0 and is
	// left as it is.
	normalize func(y [][4]float64, n int, lam [][4]float64)
}

// lanes is the kernel spectralRadius runs: the portable one, unless
// this architecture's init finds a faster one the CPU supports
// (lanes_amd64.go).
var lanes = useLanes(portableLanes)

// radiusLanesGauge shows which kernel this host runs, so one host's
// slower stability projections can be told apart from a regression.
var radiusLanesGauge = obs.NewGauge("auditherm_mat_radius_lanes",
	"Power-iteration restarts the spectral-radius kernel advances per pass (16: AVX2, 4: portable Go).")

// useLanes records k as the kernel in use and returns it.
func useLanes(k laneKernel) laneKernel {
	radiusLanesGauge.Set(float64(k.width))
	return k
}

// portableLanes is the Go kernel every architecture can run: four lanes,
// each summed in its own register, so the four independent sums keep
// the floating-point units busy where one dot product stalls on its
// running sum.
var portableLanes = laneKernel{width: 4, mulVec: mulVecLanes4, normalize: normalizeLanes4}

// mulVecLanes4 is the portable kernel's mulVec.
func mulVecLanes4(top []float64, m, n int, unit float64, x, y [][4]float64) {
	for i := 0; i < m; i++ {
		row := top[i*n : (i+1)*n]
		xs := x[:len(row)]
		var s0, s1, s2, s3 float64
		for j, v := range row {
			s0 += v * xs[j][0]
			s1 += v * xs[j][1]
			s2 += v * xs[j][2]
			s3 += v * xs[j][3]
		}
		y[i] = [4]float64{s0, s1, s2, s3}
	}
	for i := m; i < n; i++ {
		xk := &x[i-m]
		y[i] = [4]float64{unit * xk[0], unit * xk[1], unit * xk[2], unit * xk[3]}
	}
}

// normalizeLanes4 is the portable kernel's normalize. It takes Norm2's
// passes over all four lanes at once, each lane's in Norm2's order: the
// largest magnitude mx, s = Σ (y/mx)² with i ascending, mx·√s, then y
// divided by that norm. A zero lane divides by 1 instead, so its s and
// its norm come out 0. The AVX2 kernel takes the same steps.
func normalizeLanes4(y [][4]float64, n int, lam [][4]float64) {
	y = y[:n]
	var m0, m1, m2, m3 float64
	for i := range y {
		yi := &y[i]
		if a := math.Abs(yi[0]); a > m0 {
			m0 = a
		}
		if a := math.Abs(yi[1]); a > m1 {
			m1 = a
		}
		if a := math.Abs(yi[2]); a > m2 {
			m2 = a
		}
		if a := math.Abs(yi[3]); a > m3 {
			m3 = a
		}
	}
	d0, d1, d2, d3 := orOne(m0), orOne(m1), orOne(m2), orOne(m3)
	var s0, s1, s2, s3 float64
	for i := range y {
		yi := &y[i]
		r0, r1, r2, r3 := yi[0]/d0, yi[1]/d1, yi[2]/d2, yi[3]/d3
		s0 += r0 * r0
		s1 += r1 * r1
		s2 += r2 * r2
		s3 += r3 * r3
	}
	n0, n1, n2, n3 := d0*math.Sqrt(s0), d1*math.Sqrt(s1), d2*math.Sqrt(s2), d3*math.Sqrt(s3)
	lam[0] = [4]float64{n0, n1, n2, n3}
	n0, n1, n2, n3 = orOne(n0), orOne(n1), orOne(n2), orOne(n3)
	for i := range y {
		yi := &y[i]
		yi[0], yi[1], yi[2], yi[3] = yi[0]/n0, yi[1]/n1, yi[2]/n2, yi[3]/n3
	}
}

// orOne returns v, or 1 where v is 0.
func orOne(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}
