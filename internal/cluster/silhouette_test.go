package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// referenceSilhouette is the mean silhouette coefficient computed the
// straightforward way: one clustering at a time, each point summing its
// distances to every other point in index order.
func referenceSilhouette(points [][]float64, assign []int) float64 {
	k := 0
	for _, c := range assign {
		k = max(k, c+1)
	}
	sizes := make([]int, k)
	for _, c := range assign {
		sizes[c]++
	}
	total := 0.0
	for i, p := range points {
		if sizes[assign[i]] <= 1 {
			continue
		}
		sums := make([]float64, k)
		for j, q := range points {
			if i != j {
				sums[assign[j]] += math.Sqrt(sqDist(p, q))
			}
		}
		a := sums[assign[i]] / float64(sizes[assign[i]]-1)
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c != assign[i] && sizes[c] > 0 {
				b = math.Min(b, sums[c]/float64(sizes[c]))
			}
		}
		if math.IsInf(b, 1) {
			continue
		}
		if m := math.Max(a, b); m > 0 {
			total += (b - a) / m
		}
	}
	return total / float64(len(points))
}

// TestSilhouettesMatchReference: scoring several clusterings of the same
// points together, each pairwise distance computed once, must give
// every clustering the coefficient the reference computes for it alone,
// bit for bit — including clusterings with singletons, empty cluster
// labels and a single cluster. BestK must pick what the reference
// scores pick.
func TestSilhouettesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n, dim := 1+rng.Intn(40), 1+rng.Intn(4)
		points := make([][]float64, n)
		for i := range points {
			points[i] = make([]float64, dim)
			for d := range points[i] {
				points[i][d] = rng.NormFloat64() * 10
			}
		}
		assigns := make([][]int, 1+rng.Intn(5))
		for c := range assigns {
			k := 1 + rng.Intn(6)
			assigns[c] = make([]int, n)
			for i := range assigns[c] {
				assigns[c][i] = rng.Intn(k)
			}
		}
		for c, got := range silhouettes(points, assigns) {
			if want := referenceSilhouette(points, assigns[c]); got != want {
				t.Fatalf("trial %d clustering %d: silhouette %v, reference %v", trial, c, got, want)
			}
		}
		if n < 3 {
			continue
		}
		maxK := 2 + rng.Intn(min(n-1, 5))
		_, gotK, err := BestK(points, maxK, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantK, best := 0, math.Inf(-1)
		for k := 2; k <= maxK; k++ {
			res, err := KMeans(points, k, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if s := referenceSilhouette(points, res.Assign); s > best {
				wantK, best = k, s
			}
		}
		if gotK != wantK {
			t.Fatalf("trial %d: BestK chose k=%d, reference scores pick %d", trial, gotK, wantK)
		}
	}
}
