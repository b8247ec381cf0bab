package rforest

import (
	"math/rand"
	"testing"
)

// growBoth grows one tree over every row once, without a bootstrap,
// with both Train's builder and the reference, and fails on any
// difference in nodes, thresholds, leaf probabilities or accumulated
// importances. It returns the root split feature (-1 for a leaf).
func growBoth(t *testing.T, X [][]float64, Y []int, classes int, cfg Config, seed int64) int {
	t.Helper()
	cfg.Rand = rand.New(rand.NewSource(seed))
	b := newBuilder(cfg, X, Y, classes)
	for i := range b.idx {
		b.idx[i] = i
	}
	b.grow(b.idx, 0)

	refCfg := cfg
	refCfg.Rand = rand.New(rand.NewSource(seed))
	ref := &refBuilder{cfg: refCfg, X: X, Y: Y, classes: classes,
		importance: make([]float64, len(X[0])), total: len(X)}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	ref.grow(idx, 0)

	got := &Forest{features: len(X[0]), classes: classes, trees: []tree{{b.nodes}}, importance: b.importance}
	want := &Forest{features: len(X[0]), classes: classes, trees: []tree{{ref.nodes}}, importance: ref.importance}
	if d := forestDiff(got, want); d != "" {
		t.Fatalf("seed %d: tree differs from reference: %s", seed, d)
	}
	return b.nodes[0].feature
}

// TestExactGiniTieFirstFoundWins builds a node whose two binary
// features A and B split it into the same exact Gini impurity,
// 314/429: both leave 13 of the 24 rows on the left, with the same sums
// of squared class counts on each side. Their float Gini differs by one
// ulp, B's being the lower, while B's exact-integer proxy rounds one
// ulp above A's float Gini. The reference therefore picks B whatever
// the feature order, and screening without a margin would skip B after
// A. Column 2 duplicates A and column 3 mirrors B (1−B), whose float
// Gini equals B's bit for bit; of the two, the first one evaluated must
// win, as in the reference.
func TestExactGiniTieFirstFoundWins(t *testing.T) {
	hist := []int{4, 6, 6, 2, 1, 2, 3}
	leftA := []int{0, 3, 5, 0, 0, 2, 3}
	leftB := []int{1, 2, 6, 1, 1, 0, 2}
	var X [][]float64
	var Y []int
	for c, n := range hist {
		for j := 0; j < n; j++ {
			a, bv := 1.0, 1.0
			if j < leftA[c] {
				a = 0
			}
			if j < leftB[c] {
				bv = 0
			}
			X = append(X, []float64{a, bv, a, 1 - bv})
			Y = append(Y, c)
		}
	}
	cfg := Config{Trees: 1, MaxDepth: 32, FeaturesPerSplit: 4}
	roots := map[int]int{}
	for seed := int64(1); seed <= 16; seed++ {
		roots[growBoth(t, X, Y, len(hist), cfg, seed)]++
	}
	if roots[0]+roots[2] != 0 {
		t.Fatalf("root split on A in %d of 16 trees; B is strictly better in float", roots[0]+roots[2])
	}
	if roots[1] == 0 || roots[3] == 0 {
		t.Fatalf("root features %v: want both B and its mirror to win as first found", roots)
	}
}

// TestCrowdedRanksMatchReference trains on a fold with many rows and
// few distinct values per feature, so every rank holds many samples,
// which the counting sort leaves in an order that differs from the
// reference's. No split may depend on that order.
func TestCrowdedRanksMatchReference(t *testing.T) {
	const rows, dims, classes = 1500, 5, 6
	r := rand.New(rand.NewSource(11))
	X := make([][]float64, rows)
	Y := make([]int, rows)
	for i := range X {
		Y[i] = r.Intn(classes)
		X[i] = make([]float64, dims)
		for d := range X[i] {
			X[i][d] = float64((Y[i]*(d+1) + r.Intn(3)) % (3 + d))
		}
	}
	cfgA := Config{Trees: 3, Rand: rand.New(rand.NewSource(5))}
	cfgB := Config{Trees: 3, Rand: rand.New(rand.NewSource(5))}
	got, err := Train(cfgA, X, Y, classes)
	if err != nil {
		t.Fatal(err)
	}
	want, err := trainReference(cfgB, X, Y, classes)
	if err != nil {
		t.Fatal(err)
	}
	if d := forestDiff(got, want); d != "" {
		t.Fatalf("forest differs from reference: %s", d)
	}
}
