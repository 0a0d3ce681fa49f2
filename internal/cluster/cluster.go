// Package cluster implements the paper's sensor clustering: spectral
// clustering on similarity graphs built from either Euclidean distance
// or correlation of the sensors' temperature traces, with the cluster
// count chosen by the largest log-eigengap of the graph Laplacian.
// K-means (used inside spectral clustering and as a baseline) and
// single-linkage agglomerative clustering are also provided.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"auditherm/internal/mat"
	"auditherm/internal/stats"
)

// Metric selects how sensor similarity is computed from trace rows.
type Metric int

// Supported similarity metrics.
const (
	// Euclidean builds a Gaussian kernel on the Euclidean distance
	// between trace vectors, with a median-distance bandwidth.
	Euclidean Metric = iota
	// Correlation uses the positive part of the Pearson correlation
	// between trace vectors.
	Correlation
)

// String returns the metric name.
func (m Metric) String() string {
	switch m {
	case Euclidean:
		return "euclidean"
	case Correlation:
		return "correlation"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// ErrDegenerate is returned (wrapped) when clustering input is too
// small or collapses (fewer distinct points than clusters).
var ErrDegenerate = errors.New("cluster: degenerate input")

// SimilarityOptions tunes similarity-graph construction.
type SimilarityOptions struct {
	// CorrelationSharpness raises correlation weights to this power
	// (w = max(0, r)^gamma). Indoor temperature sensors correlate at
	// 0.8+ almost everywhere, so raw correlation weights are nearly
	// uniform and spectral clustering degenerates into one giant
	// cluster plus singletons; sharpening restores contrast while
	// preserving the similarity ordering. Zero selects 1 (raw
	// correlations). Ignored by the Euclidean metric.
	CorrelationSharpness float64
}

// SimilarityMatrix builds the symmetric nonnegative weight matrix of
// the sensor similarity graph from x (one row per sensor, columns are
// aligned samples) with default options.
func SimilarityMatrix(x *mat.Dense, metric Metric) (*mat.Dense, error) {
	return SimilarityMatrixOpts(x, metric, SimilarityOptions{})
}

// SimilarityMatrixOpts is SimilarityMatrix with explicit options.
func SimilarityMatrixOpts(x *mat.Dense, metric Metric, opts SimilarityOptions) (*mat.Dense, error) {
	p, n := x.Dims()
	if p < 2 || n < 2 {
		return nil, fmt.Errorf("cluster: similarity of %dx%d matrix: %w", p, n, ErrDegenerate)
	}
	similarityBuildsTotal.Inc()
	w := mat.NewDense(p, p)
	switch metric {
	case Euclidean:
		// Pairwise distances, then a Gaussian kernel with the median
		// nonzero distance as bandwidth (self-tuning, scale free).
		dists := DistanceMatrix(x)
		all := make([]float64, 0, p*(p-1)/2)
		for i := 0; i < p; i++ {
			for j := i + 1; j < p; j++ {
				all = append(all, dists.At(i, j))
			}
		}
		sigma, err := stats.Percentile(all, 50)
		if err != nil {
			return nil, fmt.Errorf("cluster: bandwidth: %w", err)
		}
		if sigma == 0 {
			sigma = 1 // all points identical; kernel weight 1 everywhere
		}
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if i == j {
					continue
				}
				d := dists.At(i, j)
				w.Set(i, j, math.Exp(-d*d/(2*sigma*sigma)))
			}
		}
	case Correlation:
		gamma := opts.CorrelationSharpness
		if gamma <= 0 {
			gamma = 1
		}
		for i := 0; i < p; i++ {
			for j := i + 1; j < p; j++ {
				r, err := stats.Pearson(x.RawRow(i), x.RawRow(j))
				if err != nil {
					return nil, fmt.Errorf("cluster: correlation of rows %d,%d: %w", i, j, err)
				}
				if r < 0 {
					r = 0 // anti-correlated sensors share no edge
				}
				r = math.Pow(r, gamma)
				w.Set(i, j, r)
				w.Set(j, i, r)
			}
		}
	default:
		return nil, fmt.Errorf("cluster: unknown metric %v", metric)
	}
	return w, nil
}

// NormalizedLaplacian returns the symmetric normalized Laplacian
// L_sym = I - D^(-1/2) W D^(-1/2). Its eigenvalues lie in [0, 2]; it
// tends to produce better-balanced clusters than the unnormalized
// Laplacian when node degrees vary widely.
func NormalizedLaplacian(w *mat.Dense) (*mat.Dense, error) {
	p, q := w.Dims()
	if p != q {
		return nil, fmt.Errorf("cluster: normalized Laplacian of %dx%d matrix: %w", p, q, mat.ErrShape)
	}
	laplaciansTotal.Inc()
	dinv := make([]float64, p)
	for i := 0; i < p; i++ {
		var d float64
		for j := 0; j < p; j++ {
			d += w.At(i, j)
		}
		if d > 0 {
			dinv[i] = 1 / math.Sqrt(d)
		}
	}
	l := mat.NewDense(p, p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			v := -dinv[i] * w.At(i, j) * dinv[j]
			if i == j {
				v++
			}
			l.Set(i, j, v)
		}
	}
	return l, nil
}

// Laplacian returns the unnormalized graph Laplacian L = D - W.
func Laplacian(w *mat.Dense) (*mat.Dense, error) {
	p, q := w.Dims()
	if p != q {
		return nil, fmt.Errorf("cluster: Laplacian of %dx%d matrix: %w", p, q, mat.ErrShape)
	}
	laplaciansTotal.Inc()
	l := mat.NewDense(p, p)
	for i := 0; i < p; i++ {
		var d float64
		for j := 0; j < p; j++ {
			d += w.At(i, j)
		}
		for j := 0; j < p; j++ {
			if i == j {
				l.Set(i, j, d-w.At(i, j))
			} else {
				l.Set(i, j, -w.At(i, j))
			}
		}
	}
	return l, nil
}

// eigenFloor keeps log-eigengap computations finite: Laplacian
// eigenvalues below this are treated as numerical zeros.
const eigenFloor = 1e-12

// LogEigengapK chooses the cluster count from ascending Laplacian
// eigenvalues by the largest gap of log-eigenvalues (the paper's
// heuristic, after Arenas et al.): k = argmax_i log(lambda_{i+1}) -
// log(lambda_i) over i in [1, kmax-1], counting eigenvalues from 1.
// The first eigenvalue (always ~0 for a Laplacian) is skipped.
func LogEigengapK(eigvals []float64, kmax int) (int, error) {
	return eigengapK(eigvals, kmax, true)
}

// LinearEigengapK is the same heuristic on raw eigenvalues, provided
// for ablation against the paper's log variant.
func LinearEigengapK(eigvals []float64, kmax int) (int, error) {
	return eigengapK(eigvals, kmax, false)
}

func eigengapK(eigvals []float64, kmax int, logScale bool) (int, error) {
	n := len(eigvals)
	if n < 3 {
		return 0, fmt.Errorf("cluster: eigengap needs at least 3 eigenvalues, got %d: %w", n, ErrDegenerate)
	}
	if kmax <= 1 || kmax > n-1 {
		kmax = n - 1
	}
	val := func(i int) float64 {
		v := eigvals[i]
		if v < eigenFloor {
			v = eigenFloor
		}
		if logScale {
			return math.Log(v)
		}
		return v
	}
	bestK, bestGap := 2, math.Inf(-1)
	// Candidate k means: eigenvalues 0..k-1 are "small", k is the first
	// "large" one. Skip k=1 (trivial single cluster).
	for k := 2; k <= kmax; k++ {
		gap := val(k) - val(k-1)
		if gap > bestGap {
			bestGap, bestK = gap, k
		}
	}
	return bestK, nil
}

// SpectralOptions tunes SpectralCluster.
type SpectralOptions struct {
	// Seed drives k-means initialization.
	Seed int64
	// Normalized selects the symmetric normalized Laplacian instead of
	// the unnormalized one the paper uses.
	Normalized bool
	// KMeansRestarts is the number of k-means restarts (best inertia
	// wins). Zero selects 8.
	KMeansRestarts int
	// KMeansIters caps Lloyd iterations per restart. Zero selects 100.
	KMeansIters int
}

// SpectralResult is the outcome of spectral clustering.
type SpectralResult struct {
	// Assign maps each sensor to a cluster in [0, K).
	Assign []int
	// K is the number of clusters used.
	K int
	// Eigenvalues are the ascending Laplacian eigenvalues.
	Eigenvalues []float64
}

// SpectralCluster clusters the rows of similarity matrix w into k
// groups; pass k <= 0 to choose k by the largest log-eigengap. The
// embedding uses the first k eigenvectors of the unnormalized
// Laplacian, grouped by restarted k-means.
func SpectralCluster(w *mat.Dense, k int, opts SpectralOptions) (*SpectralResult, error) {
	var l *mat.Dense
	var err error
	if opts.Normalized {
		l, err = NormalizedLaplacian(w)
	} else {
		l, err = Laplacian(w)
	}
	if err != nil {
		return nil, err
	}
	eig, err := mat.NewEigenSym(l)
	if err != nil {
		return nil, fmt.Errorf("cluster: Laplacian eigendecomposition: %w", err)
	}
	p := len(eig.Values)
	if k <= 0 {
		k, err = LogEigengapK(eig.Values, p-1)
		if err != nil {
			return nil, err
		}
	}
	if k < 1 || k > p {
		return nil, fmt.Errorf("cluster: k=%d for %d sensors: %w", k, p, ErrDegenerate)
	}
	// Embed each sensor as the i-th coordinates of the first k
	// eigenvectors.
	embed := mat.NewDense(p, k)
	for j := 0; j < k; j++ {
		embed.SetCol(j, eig.Vectors.Col(j))
	}
	assign, err := KMeans(embed, k, KMeansOptions{
		Seed:     opts.Seed,
		Restarts: opts.KMeansRestarts,
		MaxIters: opts.KMeansIters,
	})
	if err != nil {
		return nil, err
	}
	spectralRunsTotal.Inc()
	lastClusterCount.Set(float64(k))
	return &SpectralResult{Assign: assign, K: k, Eigenvalues: eig.Values}, nil
}

// Members returns the sensor indices of each cluster.
func (r *SpectralResult) Members() [][]int {
	return GroupMembers(r.Assign, r.K)
}

// GroupMembers converts an assignment vector into per-cluster index
// lists.
func GroupMembers(assign []int, k int) [][]int {
	out := make([][]int, k)
	for i, c := range assign {
		if c >= 0 && c < k {
			out[c] = append(out[c], i)
		}
	}
	return out
}

// KMeansOptions tunes KMeans.
type KMeansOptions struct {
	Seed     int64
	Restarts int // zero selects 8
	MaxIters int // zero selects 100
}

// KMeans clusters the rows of points into k groups with restarted
// Lloyd iterations and k-means++ seeding; the assignment with the
// lowest inertia wins. Results are deterministic in the seed.
func KMeans(points *mat.Dense, k int, opts KMeansOptions) ([]int, error) {
	n, dim := points.Dims()
	if k < 1 || k > n {
		return nil, fmt.Errorf("cluster: k-means with k=%d over %d points: %w", k, n, ErrDegenerate)
	}
	restarts := opts.Restarts
	if restarts <= 0 {
		restarts = 8
	}
	iters := opts.MaxIters
	if iters <= 0 {
		iters = 100
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	bestInertia := math.Inf(1)
	var best []int
	for r := 0; r < restarts; r++ {
		centers := kppInit(points, k, rng)
		assign := make([]int, n)
		for it := 0; it < iters; it++ {
			kmeansIterationsTotal.Inc()
			changed := false
			for i := 0; i < n; i++ {
				bi, bd := 0, math.Inf(1)
				for c := 0; c < k; c++ {
					d := mat.Dist2(points.RawRow(i), centers[c])
					if d < bd {
						bd, bi = d, c
					}
				}
				if assign[i] != bi {
					assign[i] = bi
					changed = true
				}
			}
			// Recompute centers; an empty cluster adopts the farthest
			// point from its nearest center.
			counts := make([]int, k)
			next := make([][]float64, k)
			for c := range next {
				next[c] = make([]float64, dim)
			}
			for i := 0; i < n; i++ {
				counts[assign[i]]++
				mat.Axpy(1, points.RawRow(i), next[assign[i]])
			}
			for c := 0; c < k; c++ {
				if counts[c] == 0 {
					far, farD := 0, -1.0
					for i := 0; i < n; i++ {
						d := mat.Dist2(points.RawRow(i), centers[assign[i]])
						if d > farD {
							farD, far = d, i
						}
					}
					copy(next[c], points.RawRow(far))
					counts[c] = 1
					assign[far] = c
					changed = true
					continue
				}
				for j := range next[c] {
					next[c][j] /= float64(counts[c])
				}
			}
			centers = next
			if !changed {
				break
			}
		}
		var inertia float64
		for i := 0; i < n; i++ {
			d := mat.Dist2(points.RawRow(i), centers[assign[i]])
			inertia += d * d
		}
		if inertia < bestInertia {
			bestInertia = inertia
			best = append([]int(nil), assign...)
		}
	}
	return canonicalize(best, k), nil
}

// kppInit seeds k centers with k-means++ weighting.
func kppInit(points *mat.Dense, k int, rng *rand.Rand) [][]float64 {
	n, _ := points.Dims()
	centers := make([][]float64, 0, k)
	first := rng.Intn(n)
	centers = append(centers, points.Row(first))
	d2 := make([]float64, n)
	for len(centers) < k {
		var sum float64
		for i := 0; i < n; i++ {
			best := math.Inf(1)
			for _, c := range centers {
				d := mat.Dist2(points.RawRow(i), c)
				if dd := d * d; dd < best {
					best = dd
				}
			}
			d2[i] = best
			sum += best
		}
		var pick int
		if sum == 0 {
			pick = rng.Intn(n)
		} else {
			target := rng.Float64() * sum
			var acc float64
			for i := 0; i < n; i++ {
				acc += d2[i]
				if acc >= target {
					pick = i
					break
				}
			}
		}
		centers = append(centers, points.Row(pick))
	}
	return centers
}

// canonicalize renumbers clusters by order of first appearance so that
// identical partitions compare equal regardless of label permutation.
func canonicalize(assign []int, k int) []int {
	remap := make(map[int]int, k)
	out := make([]int, len(assign))
	next := 0
	for i, c := range assign {
		m, ok := remap[c]
		if !ok {
			m = next
			remap[c] = m
			next++
		}
		out[i] = m
	}
	return out
}

// SingleLinkage clusters with classic agglomerative single-linkage on
// a distance matrix, cutting at k clusters. It is the traditional
// baseline the paper contrasts spectral clustering against.
func SingleLinkage(dist *mat.Dense, k int) ([]int, error) {
	n, m := dist.Dims()
	if n != m {
		return nil, fmt.Errorf("cluster: single linkage on %dx%d matrix: %w", n, m, mat.ErrShape)
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("cluster: single linkage with k=%d over %d points: %w", k, n, ErrDegenerate)
	}
	// Union-find over the edges sorted by distance (Kruskal-style).
	type edge struct {
		d    float64
		i, j int
	}
	var edges []edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, edge{dist.At(i, j), i, j})
		}
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].d < edges[b].d })
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	comps := n
	for _, e := range edges {
		if comps == k {
			break
		}
		ri, rj := find(e.i), find(e.j)
		if ri != rj {
			parent[ri] = rj
			comps--
		}
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = find(i)
	}
	return canonicalize(assign, k), nil
}

// DistanceMatrix returns pairwise Euclidean distances between the rows
// of x.
func DistanceMatrix(x *mat.Dense) *mat.Dense {
	p, _ := x.Dims()
	d := mat.NewDense(p, p)
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			v := mat.Dist2(x.RawRow(i), x.RawRow(j))
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
	return d
}
