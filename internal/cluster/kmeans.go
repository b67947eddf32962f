// Package cluster implements the clustering techniques the methodology
// uses to group code regions with homogeneous behavior (Hartigan,
// "Clustering Algorithms", 1975): k-means with deterministic
// initialization, plus agglomerative hierarchical clustering and cluster
// quality scores.
//
// Each code region is a point in the K-dimensional space of its activity
// wall clock times; clustering partitions the regions into groups of
// similar activity mixes so that tuning candidates can be identified per
// group rather than per region.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Common clustering errors.
var (
	// ErrNoPoints is returned when the input is empty.
	ErrNoPoints = errors.New("cluster: no points")
	// ErrBadK is returned when k is not in [1, len(points)].
	ErrBadK = errors.New("cluster: k out of range")
	// ErrRagged is returned when points have different dimensions.
	ErrRagged = errors.New("cluster: points have different dimensions")
)

// Init selects the k-means initialization strategy.
type Init int

// Initialization strategies.
const (
	// InitFarthest seeds with the point closest to the centroid of all
	// points, then repeatedly adds the point farthest from its nearest
	// seed (a deterministic analogue of k-means++). This is the default.
	InitFarthest Init = iota
	// InitFirstK seeds with the first k points, in input order.
	InitFirstK
)

// Options configures KMeans. The zero value uses farthest-point
// initialization and at most 100 Lloyd iterations.
type Options struct {
	// Init is the initialization strategy.
	Init Init
	// MaxIter bounds the Lloyd iterations; 0 means 100.
	MaxIter int
	// Refine enables Hartigan-Wong single-point improvement after Lloyd
	// converges: points are moved between clusters whenever the move
	// strictly decreases the total within-cluster sum of squares
	// (accounting for the centroid shift). Refinement can escape Lloyd's
	// local optima; on the paper's case study it finds a strictly
	// better-SSE partition than the one the paper reports.
	Refine bool
}

// Result is a clustering of the input points.
type Result struct {
	// Assign[i] is the cluster of point i, in [0, k).
	Assign []int
	// Centroids holds the k cluster centers.
	Centroids [][]float64
	// Inertia is the total within-cluster sum of squared distances.
	Inertia float64
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
}

// K returns the number of clusters.
func (r *Result) K() int { return len(r.Centroids) }

// Groups returns the cluster members as slices of point indices, ordered
// by cluster id; point order within a group follows input order.
func (r *Result) Groups() [][]int {
	out := make([][]int, len(r.Centroids))
	for i, c := range r.Assign {
		out[c] = append(out[c], i)
	}
	return out
}

func validate(points [][]float64, k int) (dim int, err error) {
	if len(points) == 0 {
		return 0, ErrNoPoints
	}
	if k < 1 || k > len(points) {
		return 0, fmt.Errorf("%w: k=%d with %d points", ErrBadK, k, len(points))
	}
	dim = len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return 0, fmt.Errorf("%w: point %d has %d dims, want %d", ErrRagged, i, len(p), dim)
		}
	}
	return dim, nil
}

// makeCentroidsLike allocates a centroid matrix of the same shape.
func makeCentroidsLike(centroids [][]float64) [][]float64 {
	out := make([][]float64, len(centroids))
	for c := range centroids {
		out[c] = make([]float64, len(centroids[c]))
	}
	return out
}

// equalAssign reports whether two assignment vectors are identical.
func equalAssign(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// equalCentroids reports whether two centroid matrices are bitwise equal
// (exact float comparison: the cycle detector needs identical states, not
// merely close ones).
func equalCentroids(a, b [][]float64) bool {
	for c := range a {
		for d := range a[c] {
			if a[c][d] != b[c][d] {
				return false
			}
		}
	}
	return true
}

// sqDist returns the squared Euclidean distance between two points.
func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// KMeans partitions points into k clusters by Lloyd's algorithm with
// deterministic initialization. It always converges (inertia is
// non-increasing and assignments are finite); empty clusters are re-seeded
// with the point farthest from its centroid.
func KMeans(points [][]float64, k int, opts Options) (*Result, error) {
	if _, err := validate(points, k); err != nil {
		return nil, err
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 100
	}
	centroids := initialize(points, k, opts.Init)
	assign := make([]int, len(points))
	res := &Result{Assign: assign, Centroids: centroids}
	// Lloyd's terminates when assignments stop changing, but the
	// empty-cluster re-seeding can fight the assignment step and lock the
	// state into a period-two cycle that would otherwise spin until
	// maxIter. The detector keeps the previous two states and, on seeing
	// state(t) == state(t-2), jumps straight to the state maxIter
	// iterations would have produced: the remaining steps only alternate
	// between the two cycle states, so the result is bit-identical to
	// running them all.
	prevAssign := make([]int, len(points))
	prev2Assign := make([]int, len(points))
	prevCent := makeCentroidsLike(centroids)
	prev2Cent := makeCentroidsLike(centroids)
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		changed := assignPoints(points, centroids, assign)
		recomputeCentroids(points, centroids, assign)
		fixEmptyClusters(points, centroids, assign)
		if !changed && iter > 0 {
			break
		}
		if iter >= 2 && equalAssign(assign, prev2Assign) && equalCentroids(centroids, prev2Cent) {
			if (maxIter-1-iter)%2 == 1 {
				// An odd number of steps remains: the final state is the
				// other cycle state, i.e. the previous iteration's.
				copy(assign, prevAssign)
				for c := range centroids {
					copy(centroids[c], prevCent[c])
				}
			}
			res.Iterations = maxIter
			break
		}
		prevAssign, prev2Assign = prev2Assign, prevAssign
		copy(prevAssign, assign)
		prevCent, prev2Cent = prev2Cent, prevCent
		for c := range centroids {
			copy(prevCent[c], centroids[c])
		}
	}
	if opts.Refine {
		hartiganRefine(points, centroids, assign, maxIter)
	}
	res.Inertia = inertia(points, centroids, assign)
	return res, nil
}

// hartiganRefine applies Hartigan-Wong single-point moves: moving point x
// from cluster a (size na) to cluster b (size nb) changes the total SSE by
// nb/(nb+1)*d(x,cb)^2 - na/(na-1)*d(x,ca)^2; any strictly negative delta is
// taken. The loop repeats until no improving move exists (or maxIter
// sweeps, as a safety bound — each accepted move strictly decreases SSE, so
// termination is guaranteed anyway for exact arithmetic).
func hartiganRefine(points, centroids [][]float64, assign []int, maxIter int) {
	counts := make([]int, len(centroids))
	for _, c := range assign {
		counts[c]++
	}
	for sweep := 0; sweep < maxIter; sweep++ {
		improved := false
		for i, p := range points {
			from := assign[i]
			if counts[from] <= 1 {
				continue // never empty a cluster
			}
			na := float64(counts[from])
			removeGain := na / (na - 1) * sqDist(p, centroids[from])
			bestTo, bestDelta := -1, -1e-12
			for c := range centroids {
				if c == from {
					continue
				}
				nb := float64(counts[c])
				delta := nb/(nb+1)*sqDist(p, centroids[c]) - removeGain
				if delta < bestDelta {
					bestTo, bestDelta = c, delta
				}
			}
			if bestTo < 0 {
				continue
			}
			counts[from]--
			counts[bestTo]++
			assign[i] = bestTo
			recomputeCentroids(points, centroids, assign)
			improved = true
		}
		if !improved {
			return
		}
	}
}

func initialize(points [][]float64, k int, init Init) [][]float64 {
	centroids := make([][]float64, k)
	switch init {
	case InitFirstK:
		for c := 0; c < k; c++ {
			centroids[c] = append([]float64(nil), points[c]...)
		}
	default: // InitFarthest
		// First seed: the point nearest the global centroid.
		dim := len(points[0])
		global := make([]float64, dim)
		for _, p := range points {
			for d, v := range p {
				global[d] += v
			}
		}
		for d := range global {
			global[d] /= float64(len(points))
		}
		first, firstDist := 0, math.Inf(1)
		for i, p := range points {
			if dd := sqDist(p, global); dd < firstDist {
				first, firstDist = i, dd
			}
		}
		chosen := []int{first}
		for len(chosen) < k {
			far, farDist := -1, -1.0
			for i, p := range points {
				nearest := math.Inf(1)
				for _, c := range chosen {
					if dd := sqDist(p, points[c]); dd < nearest {
						nearest = dd
					}
				}
				if nearest > farDist {
					far, farDist = i, nearest
				}
			}
			chosen = append(chosen, far)
		}
		for c, idx := range chosen {
			centroids[c] = append([]float64(nil), points[idx]...)
		}
	}
	return centroids
}

func assignPoints(points, centroids [][]float64, assign []int) (changed bool) {
	for i, p := range points {
		best, bestDist := 0, math.Inf(1)
		for c, cent := range centroids {
			if dd := sqDist(p, cent); dd < bestDist {
				best, bestDist = c, dd
			}
		}
		if assign[i] != best {
			assign[i] = best
			changed = true
		}
	}
	return changed
}

func recomputeCentroids(points, centroids [][]float64, assign []int) {
	dim := len(points[0])
	counts := make([]int, len(centroids))
	for c := range centroids {
		for d := 0; d < dim; d++ {
			centroids[c][d] = 0
		}
	}
	for i, p := range points {
		c := assign[i]
		counts[c]++
		for d, v := range p {
			centroids[c][d] += v
		}
	}
	for c := range centroids {
		if counts[c] == 0 {
			continue
		}
		for d := 0; d < dim; d++ {
			centroids[c][d] /= float64(counts[c])
		}
	}
}

// fixEmptyClusters re-seeds any empty cluster with the point farthest from
// its current centroid, guaranteeing every cluster is nonempty when
// k <= len(points).
func fixEmptyClusters(points, centroids [][]float64, assign []int) {
	counts := make([]int, len(centroids))
	for _, c := range assign {
		counts[c]++
	}
	for c := range centroids {
		if counts[c] > 0 {
			continue
		}
		far, farDist := -1, -1.0
		for i, p := range points {
			if counts[assign[i]] <= 1 {
				continue // don't empty another cluster
			}
			if dd := sqDist(p, centroids[assign[i]]); dd > farDist {
				far, farDist = i, dd
			}
		}
		if far < 0 {
			continue
		}
		counts[assign[far]]--
		assign[far] = c
		counts[c] = 1
		copy(centroids[c], points[far])
	}
}

func inertia(points, centroids [][]float64, assign []int) float64 {
	s := 0.0
	for i, p := range points {
		s += sqDist(p, centroids[assign[i]])
	}
	return s
}

// Silhouette returns the mean silhouette coefficient of a clustering, in
// [-1, 1]; larger is better. Points in singleton clusters contribute 0.
func Silhouette(points [][]float64, assign []int) (float64, error) {
	if len(points) == 0 {
		return 0, ErrNoPoints
	}
	if len(assign) != len(points) {
		return 0, fmt.Errorf("cluster: %d assignments for %d points", len(assign), len(points))
	}
	return silhouettes(points, [][]int{assign})[0], nil
}

// silhouettes returns the mean silhouette coefficient of each clustering
// of the same points. Each pairwise distance is computed once, for both
// points of the pair and every clustering; each point still sums its
// distances in ascending order of the other point, so every coefficient
// is bit-identical to computing the clustering on its own. The price is
// memory: one distance sum per point and cluster of every clustering.
func silhouettes(points [][]float64, assigns [][]int) []float64 {
	n := len(points)
	ks := make([]int, len(assigns))
	sizes := make([][]int, len(assigns))
	// sums[c][i*k+q] is point i's distance sum to cluster q of
	// clustering c.
	sums := make([][]float64, len(assigns))
	for c, assign := range assigns {
		for _, q := range assign {
			ks[c] = max(ks[c], q+1)
		}
		sizes[c] = make([]int, ks[c])
		for _, q := range assign {
			sizes[c][q]++
		}
		sums[c] = make([]float64, n*ks[c])
	}
	for i := range points {
		for j := i + 1; j < n; j++ {
			d := math.Sqrt(sqDist(points[i], points[j]))
			for c, assign := range assigns {
				sums[c][i*ks[c]+assign[j]] += d
				sums[c][j*ks[c]+assign[i]] += d
			}
		}
	}
	out := make([]float64, len(assigns))
	for c, assign := range assigns {
		k, size := ks[c], sizes[c]
		total := 0.0
		for i, own := range assign {
			if size[own] <= 1 {
				continue
			}
			// Mean distance to own cluster (a) and to the nearest other
			// cluster (b).
			row := sums[c][i*k : (i+1)*k]
			a := row[own] / float64(size[own]-1)
			b := math.Inf(1)
			for q := 0; q < k; q++ {
				if q == own || size[q] == 0 {
					continue
				}
				if m := row[q] / float64(size[q]); m < b {
					b = m
				}
			}
			if math.IsInf(b, 1) {
				continue // only one nonempty cluster
			}
			if m := math.Max(a, b); m > 0 {
				total += (b - a) / m
			}
		}
		out[c] = total / float64(n)
	}
	return out
}

// BestK runs KMeans for every k in [2, maxK] and returns the clustering
// with the highest silhouette, along with its k. maxK is clamped to the
// number of points.
func BestK(points [][]float64, maxK int, opts Options) (*Result, int, error) {
	if len(points) == 0 {
		return nil, 0, ErrNoPoints
	}
	if maxK > len(points) {
		maxK = len(points)
	}
	if maxK < 2 {
		res, err := KMeans(points, 1, opts)
		return res, 1, err
	}
	var results []*Result
	var assigns [][]int
	for k := 2; k <= maxK; k++ {
		res, err := KMeans(points, k, opts)
		if err != nil {
			return nil, 0, err
		}
		results = append(results, res)
		assigns = append(assigns, res.Assign)
	}
	var best *Result
	bestK, bestScore := 0, math.Inf(-1)
	for i, score := range silhouettes(points, assigns) {
		if score > bestScore {
			best, bestK, bestScore = results[i], i+2, score
		}
	}
	return best, bestK, nil
}

// sortGroups orders each group ascending and the groups by first element;
// tests use it to compare partitions ignoring cluster ids.
func sortGroups(groups [][]int) [][]int {
	out := make([][]int, len(groups))
	for i, g := range groups {
		out[i] = append([]int(nil), g...)
		sort.Ints(out[i])
	}
	sort.Slice(out, func(a, b int) bool {
		if len(out[a]) == 0 || len(out[b]) == 0 {
			return len(out[a]) > len(out[b])
		}
		return out[a][0] < out[b][0]
	})
	return out
}

// SameParts reports whether two partitions (as Groups slices) are equal up
// to cluster relabeling.
func SameParts(a, b [][]int) bool {
	sa, sb := sortGroups(a), sortGroups(b)
	if len(sa) != len(sb) {
		return false
	}
	for i := range sa {
		if len(sa[i]) != len(sb[i]) {
			return false
		}
		for j := range sa[i] {
			if sa[i][j] != sb[i][j] {
				return false
			}
		}
	}
	return true
}
