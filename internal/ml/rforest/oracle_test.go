package rforest

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/check"
)

// paperShaped builds a Table III-shaped training fold: 39 classes × 9
// rows × 70 features. The separable variant has continuous features
// around per-class centres, like the FPGA-current cells; the tie-heavy
// variant rounds them to a handful of integer levels, like the
// FPGA-voltage cells, whose sensor resolution leaves few distinct
// values per feature.
func paperShaped(seed int64, tieHeavy bool) ([][]float64, []int) {
	const classes, perClass, dims = 39, 9, 70
	r := rand.New(rand.NewSource(seed))
	centre := make([][]float64, classes)
	for c := range centre {
		centre[c] = make([]float64, dims)
		for d := range centre[c] {
			centre[c][d] = 3 * r.NormFloat64()
		}
	}
	X := make([][]float64, 0, classes*perClass)
	Y := make([]int, 0, classes*perClass)
	for c := 0; c < classes; c++ {
		for i := 0; i < perClass; i++ {
			x := make([]float64, dims)
			for d := range x {
				v := centre[c][d] + r.NormFloat64()
				if tieHeavy {
					v = math.Round(v / 3)
				}
				x[d] = v
			}
			X = append(X, x)
			Y = append(Y, c)
		}
	}
	return X, Y
}

// forestDiff returns "" when a and b are the same forest bit for bit —
// every node's feature, threshold bits, children and leaf-probability
// bits, and every importance — and otherwise the first difference.
func forestDiff(a, b *Forest) string {
	if a.features != b.features || a.classes != b.classes {
		return fmt.Sprintf("shape %d×%d vs %d×%d", a.features, a.classes, b.features, b.classes)
	}
	if len(a.trees) != len(b.trees) {
		return fmt.Sprintf("%d vs %d trees", len(a.trees), len(b.trees))
	}
	for t := range a.trees {
		na, nb := a.trees[t].nodes, b.trees[t].nodes
		if len(na) != len(nb) {
			return fmt.Sprintf("tree %d: %d vs %d nodes", t, len(na), len(nb))
		}
		for i := range na {
			x, y := na[i], nb[i]
			if x.feature != y.feature || math.Float64bits(x.threshold) != math.Float64bits(y.threshold) ||
				x.left != y.left || x.right != y.right {
				return fmt.Sprintf("tree %d node %d: split {f%d %v %d %d} vs {f%d %v %d %d}",
					t, i, x.feature, x.threshold, x.left, x.right, y.feature, y.threshold, y.left, y.right)
			}
			if len(x.proba) != len(y.proba) {
				return fmt.Sprintf("tree %d node %d: proba len %d vs %d", t, i, len(x.proba), len(y.proba))
			}
			for c := range x.proba {
				if math.Float64bits(x.proba[c]) != math.Float64bits(y.proba[c]) {
					return fmt.Sprintf("tree %d node %d: proba[%d] %v vs %v", t, i, c, x.proba[c], y.proba[c])
				}
			}
		}
	}
	for i := range a.importance {
		if math.Float64bits(a.importance[i]) != math.Float64bits(b.importance[i]) {
			return fmt.Sprintf("importance[%d] %v vs %v", i, a.importance[i], b.importance[i])
		}
	}
	return ""
}

// forestHash is a structural SHA-256 over everything forestDiff compares.
func forestHash(f *Forest) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(f.features))
	put(uint64(f.classes))
	put(uint64(len(f.trees)))
	for _, t := range f.trees {
		put(uint64(len(t.nodes)))
		for _, n := range t.nodes {
			put(uint64(int64(n.feature)))
			put(math.Float64bits(n.threshold))
			put(uint64(int64(n.left)))
			put(uint64(int64(n.right)))
			put(uint64(len(n.proba)))
			for _, p := range n.proba {
				put(math.Float64bits(p))
			}
		}
	}
	for _, v := range f.importance {
		put(math.Float64bits(v))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestTrainGoldenHash pins the paper-configuration forest (100 trees,
// depth 32, ⌈√F⌉ features) on both paper-shaped folds. The hashes were
// captured from the original sort.Slice split search, so they also
// guard the oracle in reference_test.go against drifting with Train.
func TestTrainGoldenHash(t *testing.T) {
	want := map[bool]string{
		false: "3e5109dcf23cbf24d6d45b1a74c85db5176ed6f76bc2ccac44124a95ad700b80",
		true:  "ff8377c80db542ac304e4aacafe744180523ea071ff366f681d38409776bd25e",
	}
	for _, tieHeavy := range []bool{false, true} {
		X, Y := paperShaped(3, tieHeavy)
		f, err := Train(Config{Rand: rand.New(rand.NewSource(1))}, X, Y, 39)
		if err != nil {
			t.Fatal(err)
		}
		if got := forestHash(f); got != want[tieHeavy] {
			t.Errorf("tieHeavy=%v: forest hash %s, want %s", tieHeavy, got, want[tieHeavy])
		}
		ref, err := trainReference(Config{Rand: rand.New(rand.NewSource(1))}, X, Y, 39)
		if err != nil {
			t.Fatal(err)
		}
		if got := forestHash(ref); got != want[tieHeavy] {
			t.Errorf("tieHeavy=%v: reference forest hash %s, want %s", tieHeavy, got, want[tieHeavy])
		}
	}
}

// trainCase is one input to the differential oracle.
type trainCase struct {
	X                         [][]float64
	Y                         []int
	Classes                   int
	Trees, MaxDepth, PerSplit int
	Seed                      int64
}

// Column kinds: each targets a way equal or nearly-equal values reach
// the split search.
const (
	colContinuous = iota // label-shifted Gaussian
	colQuantized         // a few evenly spaced levels
	colConstant          // one value for every row
	colSignedZero        // ±0 mixed with ±1
	colAdjacent          // values a few ulps apart
	colTiny              // zero and the smallest subnormals
	colHuge              // near ±MaxFloat64, where midpoints overflow
	colKinds
)

func genColumn(r *rand.Rand, kind int, Y []int) []float64 {
	col := make([]float64, len(Y))
	levels := 2 + r.Intn(5)
	base := float64(1 + r.Intn(3))
	for i := range col {
		switch kind {
		case colContinuous:
			col[i] = float64(Y[i]) + 2*r.NormFloat64()
		case colQuantized:
			col[i] = 0.5 * float64(r.Intn(levels))
		case colConstant:
			col[i] = base
		case colSignedZero:
			col[i] = []float64{0, math.Copysign(0, -1), 1, -1}[r.Intn(4)]
		case colAdjacent:
			v := base
			for k := r.Intn(4); k > 0; k-- {
				v = math.Nextafter(v, math.Inf(1))
			}
			col[i] = v
		case colTiny:
			col[i] = float64(r.Intn(3)) * math.SmallestNonzeroFloat64
		case colHuge:
			col[i] = []float64{math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0), -math.MaxFloat64, 1}[r.Intn(4)]
		}
	}
	return col
}

func genTrainCase(r *rand.Rand, size int) trainCase {
	tc := trainCase{
		Classes: 2 + r.Intn(39),
		Trees:   1 + r.Intn(6),
		Seed:    r.Int63(),
	}
	rows := 1 + r.Intn(4+2*size)
	nFeat := 1 + r.Intn(10)
	tc.Y = make([]int, rows)
	for i := range tc.Y {
		tc.Y[i] = r.Intn(tc.Classes)
	}
	cols := make([][]float64, nFeat)
	for f := range cols {
		cols[f] = genColumn(r, r.Intn(colKinds), tc.Y)
	}
	tc.X = make([][]float64, rows)
	for i := range tc.X {
		tc.X[i] = make([]float64, nFeat)
		if i > 0 && r.Intn(4) == 0 { // duplicate an earlier row, maybe relabelled
			j := r.Intn(i)
			copy(tc.X[i], tc.X[j])
			if r.Intn(2) == 0 {
				tc.Y[i] = tc.Y[j]
			}
			continue
		}
		for f := range cols {
			tc.X[i][f] = cols[f][i]
		}
	}
	if r.Intn(3) > 0 {
		tc.MaxDepth = 1 + r.Intn(12)
	}
	if r.Intn(2) == 0 {
		tc.PerSplit = 1 + r.Intn(nFeat)
	}
	return tc
}

// shrinkTrainCase proposes strictly smaller cases: fewer trees, half the
// rows, or one feature fewer.
func shrinkTrainCase(tc trainCase) []trainCase {
	var out []trainCase
	if tc.Trees > 1 {
		s := tc
		s.Trees = 1
		out = append(out, s)
	}
	if len(tc.X) > 1 {
		s := tc
		s.X, s.Y = tc.X[:len(tc.X)/2], tc.Y[:len(tc.Y)/2]
		out = append(out, s)
	}
	if nFeat := len(tc.X[0]); nFeat > 1 {
		s := tc
		s.X = make([][]float64, len(tc.X))
		for i, x := range tc.X {
			s.X[i] = x[:nFeat-1]
		}
		s.PerSplit = min(s.PerSplit, nFeat-1)
		out = append(out, s)
	}
	return out
}

func (tc trainCase) config() Config {
	return Config{Trees: tc.Trees, MaxDepth: tc.MaxDepth, FeaturesPerSplit: tc.PerSplit,
		Rand: rand.New(rand.NewSource(tc.Seed))}
}

// TestPropTrainMatchesReference is the differential oracle: on datasets
// full of ties, duplicate rows, constant columns, signed zeros, adjacent
// and overflowing values, Train must return the reference forest bit for
// bit and leave its random stream in the same state.
func TestPropTrainMatchesReference(t *testing.T) {
	gen := check.Gen[trainCase]{
		Generate: genTrainCase,
		Shrink:   shrinkTrainCase,
		Describe: func(tc trainCase) string {
			return fmt.Sprintf("classes=%d trees=%d depth=%d perSplit=%d seed=%d X=%v Y=%v",
				tc.Classes, tc.Trees, tc.MaxDepth, tc.PerSplit, tc.Seed, tc.X, tc.Y)
		},
	}
	check.Forall(t, gen, func(c *check.T, tc trainCase) {
		cfgA, cfgB := tc.config(), tc.config()
		got, err := Train(cfgA, tc.X, tc.Y, tc.Classes)
		if err != nil {
			c.Fatalf("Train: %v", err)
		}
		want, err := trainReference(cfgB, tc.X, tc.Y, tc.Classes)
		if err != nil {
			c.Fatalf("trainReference: %v", err)
		}
		if d := forestDiff(got, want); d != "" {
			c.Fatalf("forest differs from reference: %s", d)
		}
		if a, b := cfgA.Rand.Int63(), cfgB.Rand.Int63(); a != b {
			c.Fatalf("random stream diverged: next draw %d vs %d", a, b)
		}
		splits := 0
		for _, tr := range got.trees {
			splits += (len(tr.nodes) - 1) / 2
		}
		c.Classify(splits > 0, "splits")
		c.Classify(tc.Classes >= 20, "classes>=20")
		c.Classify(len(tc.X) >= 50, "rows>=50")
	})
}

// TestPermMatchesRandPerm pins perm to math/rand's Perm draw for draw,
// including the state it leaves the stream in.
func TestPermMatchesRandPerm(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for n := 1; n <= 90; n++ {
			want := a.Perm(n)
			got := make([]int, n)
			perm(b, got)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d n %d: perm %v, rand.Perm %v", seed, n, got, want)
			}
		}
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("seed %d: streams diverged (%d vs %d)", seed, x, y)
		}
	}
}

// TestRoundedMidpointMakesLeaf: the midpoint of 1+2⁻⁵² and 1+2⁻⁵¹
// rounds (to even) onto the upper value, so the best split sends both
// samples left. The node must become a leaf, exactly as in the
// reference.
func TestRoundedMidpointMakesLeaf(t *testing.T) {
	a := math.Nextafter(1, 2)
	b := math.Nextafter(a, 2)
	if (a+b)/2 != b {
		t.Fatalf("midpoint %v does not round onto %v", (a+b)/2, b)
	}
	X := [][]float64{{a}, {b}}
	Y := []int{0, 1}
	cfg := Config{Trees: 3, Rand: rand.New(rand.NewSource(4))}
	got, err := Train(cfg, X, Y, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := trainReference(Config{Trees: 3, Rand: rand.New(rand.NewSource(4))}, X, Y, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := forestDiff(got, want); d != "" {
		t.Fatalf("forest differs from reference: %s", d)
	}
	for i, tr := range got.trees {
		if len(tr.nodes) != 1 {
			t.Fatalf("tree %d has %d nodes, want a single leaf", i, len(tr.nodes))
		}
	}
}
