// Package rforest is a from-scratch random-forest classifier matching
// the paper's configuration: 100 trees, maximum depth 32, Gini impurity
// as the splitting criterion, bootstrap sampling per tree, and a random
// feature subset evaluated at every split. Leaves are grown to purity or
// to MaxDepth.
//
// Train is a pure function of its inputs and the state of cfg.Rand. It
// accepts finite features only, and the order of equal-valued samples
// cannot affect a split: the sweep evaluates only between distinct
// values, with exact integer class counts.
package rforest

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/stats"
)

// Config holds the forest hyperparameters. The zero value of each field
// selects the paper's setting.
type Config struct {
	// Trees is the ensemble size; zero means 100.
	Trees int
	// MaxDepth limits tree depth; zero means 32.
	MaxDepth int
	// FeaturesPerSplit is the number of candidate features per split;
	// zero means ⌈√F⌉.
	FeaturesPerSplit int
	// Rand drives bootstrap sampling and feature selection. Required.
	Rand *rand.Rand
}

// node is one decision-tree node, stored flat in the tree's node slice.
type node struct {
	feature   int // -1 for leaves
	threshold float64
	left      int32
	right     int32
	// class histogram at the node (leaves only), normalized.
	proba []float64
}

type tree struct{ nodes []node }

// Forest is a trained random forest.
type Forest struct {
	cfg        Config
	trees      []tree
	features   int
	classes    int
	importance []float64
}

// Train fits a forest on samples X with labels Y in [0, classes). Every
// feature must be finite; a NaN or ±Inf yields an error wrapping
// stats.ErrNonFinite.
func Train(cfg Config, X [][]float64, Y []int, classes int) (*Forest, error) {
	if cfg.Trees == 0 {
		cfg.Trees = 100
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 32
	}
	if cfg.Rand == nil {
		return nil, errors.New("rforest: nil random stream")
	}
	if cfg.Trees < 1 || cfg.MaxDepth < 1 {
		return nil, errors.New("rforest: non-positive hyperparameter")
	}
	if len(X) == 0 || len(X) != len(Y) {
		return nil, fmt.Errorf("rforest: %d samples vs %d labels", len(X), len(Y))
	}
	if classes < 2 {
		return nil, errors.New("rforest: need at least two classes")
	}
	nFeat := len(X[0])
	if nFeat == 0 {
		return nil, errors.New("rforest: zero-width feature vectors")
	}
	for i, x := range X {
		if len(x) != nFeat {
			return nil, fmt.Errorf("rforest: sample %d has %d features, want %d", i, len(x), nFeat)
		}
		for j, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("rforest: sample %d feature %d: %w", i, j, stats.ErrNonFinite)
			}
		}
	}
	for i, y := range Y {
		if y < 0 || y >= classes {
			return nil, fmt.Errorf("rforest: label %d of sample %d outside [0,%d)", y, i, classes)
		}
	}
	if cfg.FeaturesPerSplit == 0 {
		cfg.FeaturesPerSplit = int(math.Ceil(math.Sqrt(float64(nFeat))))
	}
	if cfg.FeaturesPerSplit < 1 || cfg.FeaturesPerSplit > nFeat {
		return nil, fmt.Errorf("rforest: features per split %d outside [1,%d]", cfg.FeaturesPerSplit, nFeat)
	}

	f := &Forest{cfg: cfg, features: nFeat, classes: classes}
	f.trees = make([]tree, cfg.Trees)
	f.importance = make([]float64, nFeat)
	b := newBuilder(cfg, X, Y, classes)
	for t := range f.trees {
		// Bootstrap: sample len(X) indices with replacement.
		for i := range b.idx {
			b.idx[i] = cfg.Rand.Intn(len(X))
		}
		b.nodes = b.nodes[:0]
		b.grow(b.idx, 0)
		f.trees[t] = tree{nodes: slices.Clone(b.nodes)}
	}
	// Normalize the accumulated impurity decreases to sum to 1.
	var total float64
	for _, v := range b.importance {
		total += v
	}
	if total > 0 {
		for i, v := range b.importance {
			f.importance[i] = v / total
		}
	}
	return f, nil
}

// Importances returns the normalized mean decrease in Gini impurity per
// feature (summing to 1 when any split occurred) — which parts of the
// trace the classifier actually keyed on.
func (f *Forest) Importances() []float64 {
	return append([]float64(nil), f.importance...)
}

// builder grows the trees of one Train call. Its scratch buffers are
// sized once per Train; only nodes and leaf probabilities allocate per
// tree.
type builder struct {
	cfg        Config
	X          [][]float64
	Y          []int
	classes    int
	importance []float64 // accumulated impurity decrease per feature

	// rank[f*rows+s] is sample s's dense rank in feature f (equal values
	// share a rank); vals[f][r] is feature f's value of rank r.
	rows int
	rank []uint32
	vals [][]float64

	nodes   []node    // the tree being grown
	idx     []int     // bootstrap sample, partitioned in place by grow
	spill   []int     // right-hand side of the partition in progress
	feats   []int     // candidate-feature permutation
	keys    []uint64  // rank<<32 | label, one per sample at the node
	cnt     []int     // per-rank counts, then slots, of the counting sort
	hist    []float64 // class counts at the node
	left    []float64 // class counts left of a candidate split
	right   []float64 // class counts right of a candidate split
	present []int32   // classes with a non-zero count at the node, ascending
	margin  float64   // screening margin of bestSplit; +Inf turns screening off
}

// screenMargin is how far the exact-integer Gini proxy of bestSplit must
// lie above the best impurity so far before the float Gini is skipped.
//
// Both the proxy q = 1 − (sl/nl + sr/nr)/n and the float Gini g of a
// split approximate the same rational G = 1 − (Σl²/nl + Σr²/nr)/n. The
// sums of squares sl = Σl² and sr = Σr² are exact while rows² < 2^53,
// so q is five roundings from G (two divisions, the addition, the
// division by n and the subtraction from 1): |q − G| ≤ 5u, u = 2^-53,
// to first order in u. g sums K present classes in order:
// |g − G| ≤ (K+6)u. A skip needs q > fl(best+margin) ≥ best + margin − u,
// hence g > best + margin − (K+12)u ≥ best whenever (K+12)u ≤ margin,
// which holds for K < 2^20 ((2^20+12)·2^-53 ≈ 1.2e-10 ≤ 1e-9). Such a position would fail the
// g < best test anyway, so screening never moves a split. Train turns
// screening off outside those limits.
const screenMargin = 1e-9

// newBuilder allocates the per-Train scratch and ranks every feature.
func newBuilder(cfg Config, X [][]float64, Y []int, classes int) *builder {
	rows, nFeat := len(X), len(X[0])
	b := &builder{cfg: cfg, X: X, Y: Y, classes: classes,
		importance: make([]float64, nFeat),
		rows:       rows,
		rank:       make([]uint32, nFeat*rows),
		vals:       make([][]float64, nFeat),
		idx:        make([]int, rows),
		spill:      make([]int, 0, rows),
		feats:      make([]int, nFeat),
		keys:       make([]uint64, rows),
		cnt:        make([]int, rows),
		margin:     screenMargin,
		hist:       make([]float64, classes),
		left:       make([]float64, classes),
		right:      make([]float64, classes),
		present:    make([]int32, 0, classes),
	}
	if float64(rows)*float64(rows) >= 1<<53 || classes >= 1<<20 {
		b.margin = math.Inf(1)
	}
	order := make([]int, rows)
	vals := make([]float64, 0, nFeat*rows)
	for f := 0; f < nFeat; f++ {
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, c int) int { return cmp.Compare(X[a][f], X[c][f]) })
		rank := b.rank[f*rows : (f+1)*rows]
		start := len(vals)
		for i, s := range order {
			// -0 and +0 compare equal and share a rank. Either can stand
			// for it: a threshold adds a distinct, hence non-zero, value
			// to it, and x + ±0 = x.
			if i == 0 || X[s][f] != vals[len(vals)-1] {
				vals = append(vals, X[s][f])
			}
			rank[s] = uint32(len(vals) - 1 - start)
		}
		b.vals[f] = vals[start:len(vals):len(vals)]
	}
	return b
}

// grow builds the subtree over the given sample indices and returns its
// node index. It reorders idx: on return the left child's samples
// precede the right child's.
func (b *builder) grow(idx []int, depth int) int32 {
	hist := b.hist
	clear(hist)
	for _, i := range idx {
		hist[b.Y[i]]++
	}
	b.present = b.present[:0]
	for c, v := range hist {
		if v > 0 {
			b.present = append(b.present, int32(c))
		}
	}
	id := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{feature: -1})
	if len(b.present) <= 1 || depth >= b.cfg.MaxDepth {
		b.leaf(id, len(idx))
		return id
	}
	feat, thr, ok := b.bestSplit(idx)
	if !ok {
		b.leaf(id, len(idx))
		return id
	}
	// Stable partition into [left | right].
	nl := 0
	spill := b.spill[:0]
	for _, i := range idx {
		if b.X[i][feat] <= thr {
			idx[nl] = i
			nl++
		} else {
			spill = append(spill, i)
		}
	}
	copy(idx[nl:], spill)
	// The midpoint of two adjacent floats can round onto the upper one,
	// and two huge ones can overflow to ±Inf; either can send every
	// sample to one side.
	if nl == 0 || nl == len(idx) {
		b.leaf(id, len(idx))
		return id
	}
	b.accumulateImportance(feat, idx[:nl], idx[nl:])
	l := b.grow(idx[:nl], depth+1)
	r := b.grow(idx[nl:], depth+1)
	b.nodes[id].feature = feat
	b.nodes[id].threshold = thr
	b.nodes[id].left = l
	b.nodes[id].right = r
	return id
}

// accumulateImportance records the split's weighted Gini decrease. It
// reads the node's histogram, so it must run before grow recurses.
func (b *builder) accumulateImportance(feat int, left, right []int) {
	n := float64(len(left) + len(right))
	lh, rh := b.left, b.right
	for _, c := range b.present {
		lh[c], rh[c] = 0, 0
	}
	for _, i := range left {
		lh[b.Y[i]]++
	}
	for _, i := range right {
		rh[b.Y[i]]++
	}
	nl, nr := float64(len(left)), float64(len(right))
	decrease := gini(b.hist, b.present, n) - nl/n*gini(lh, b.present, nl) - nr/n*gini(rh, b.present, nr)
	if decrease > 0 {
		b.importance[feat] += n / float64(b.rows) * decrease
	}
}

// leaf stores the node's normalized class histogram.
func (b *builder) leaf(id int32, n int) {
	proba := make([]float64, b.classes)
	for _, c := range b.present {
		proba[c] = b.hist[c] / float64(n)
	}
	b.nodes[id].proba = proba
}

// bestSplit searches a random feature subset for the threshold with the
// lowest weighted Gini impurity.
func (b *builder) bestSplit(idx []int) (feat int, thr float64, ok bool) {
	n := float64(len(idx))
	bestGini := math.Inf(1)
	var sumSq float64 // Σ hist[c]², exact: see screenMargin
	for _, c := range b.present {
		sumSq += b.hist[c] * b.hist[c]
	}

	// Sample cfg.FeaturesPerSplit distinct features (partial shuffle).
	perm(b.cfg.Rand, b.feats)
	keys := b.keys[:len(idx)]
	last := len(keys) - 1
	for _, f := range b.feats[:b.cfg.FeaturesPerSplit] {
		rank := b.rank[f*b.rows : (f+1)*b.rows]
		// Group the keys by ascending rank. The order within a rank is
		// free: the sweep below evaluates only between ranks, where the
		// class counts and sums of squares do not depend on it.
		b.countingSort(keys, idx, rank, len(b.vals[f]))
		if keys[0]>>32 == keys[last]>>32 {
			continue // constant at this node: no split position
		}
		for _, c := range b.present {
			b.left[c] = 0
			b.right[c] = b.hist[c]
		}
		sl, sr := 0.0, sumSq // Σ left[c]², Σ right[c]²
		// Sweep split positions between distinct values.
		for i := 0; i < last; i++ {
			y := uint32(keys[i])
			sl += 2*b.left[y] + 1
			b.left[y]++
			b.right[y]--
			sr -= 2*b.right[y] + 1
			r, next := keys[i]>>32, keys[i+1]>>32
			if r == next {
				continue
			}
			nl := float64(i + 1)
			nr := n - nl
			if 1-(sl/nl+sr/nr)/n > bestGini+b.margin {
				continue // cannot beat bestGini: see screenMargin
			}
			g := nl/n*gini(b.left, b.present, nl) + nr/n*gini(b.right, b.present, nr)
			if g < bestGini {
				bestGini = g
				feat = f
				thr = (b.vals[f][r] + b.vals[f][next]) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

// countingSort fills keys with rank<<32 | label for the samples in idx,
// grouped by ascending rank, in O(len(idx) + distinct) time.
func (b *builder) countingSort(keys []uint64, idx []int, rank []uint32, distinct int) {
	cnt := b.cnt[:distinct]
	clear(cnt)
	for _, s := range idx {
		cnt[rank[s]]++
	}
	// Exclusive prefix sum: cnt[r] becomes the first slot of rank r.
	sum := 0
	for r, c := range cnt {
		cnt[r] = sum
		sum += c
	}
	for _, s := range idx {
		r := rank[s]
		keys[cnt[r]] = uint64(r)<<32 | uint64(b.Y[s])
		cnt[r]++
	}
}

// perm fills m with r.Perm(len(m)), making the identical sequence of
// r.Intn(i+1) draws; the Go 1 compatibility promise freezes Perm's
// algorithm.
func perm(r *rand.Rand, m []int) {
	for i := range m {
		j := r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
}

// gini computes the Gini impurity of a class histogram with total n,
// summing over the given classes in order. A class with a zero count
// contributes an exact zero, so the classes absent from a node can be
// left out without changing a bit.
func gini(hist []float64, classes []int32, n float64) float64 {
	if n == 0 {
		return 0
	}
	s := 1.0
	for _, c := range classes {
		p := hist[c] / n
		s -= p * p
	}
	return s
}

// Features returns the feature-vector width the forest was trained on.
func (f *Forest) Features() int { return f.features }

// Classes returns the number of classes.
func (f *Forest) Classes() int { return f.classes }

// Trees returns the ensemble size.
func (f *Forest) Trees() int { return len(f.trees) }

// Proba returns the mean class distribution across the ensemble.
func (f *Forest) Proba(x []float64) ([]float64, error) {
	if len(x) != f.features {
		return nil, fmt.Errorf("rforest: sample has %d features, want %d", len(x), f.features)
	}
	out := make([]float64, f.classes)
	for _, t := range f.trees {
		i := int32(0)
		for t.nodes[i].feature >= 0 {
			n := t.nodes[i]
			if x[n.feature] <= n.threshold {
				i = n.left
			} else {
				i = n.right
			}
		}
		for c, p := range t.nodes[i].proba {
			out[c] += p
		}
	}
	for c := range out {
		out[c] /= float64(len(f.trees))
	}
	return out, nil
}

// Predict returns the most probable class.
func (f *Forest) Predict(x []float64) (int, error) {
	top, err := f.TopK(x, 1)
	if err != nil {
		return 0, err
	}
	return top[0], nil
}

// TopK returns the k most probable classes in descending order of
// probability (ties broken by class index, deterministically).
func (f *Forest) TopK(x []float64, k int) ([]int, error) {
	if k < 1 || k > f.classes {
		return nil, fmt.Errorf("rforest: k %d outside [1,%d]", k, f.classes)
	}
	proba, err := f.Proba(x)
	if err != nil {
		return nil, err
	}
	order := make([]int, f.classes)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return proba[order[a]] > proba[order[b]] })
	return order[:k], nil
}
