package rforest

import (
	"math/rand"
	"testing"
)

// BenchmarkTrain times one paper-configuration Train (100 trees, depth
// 32, ⌈√F⌉ features) on a Table III-shaped fold: separable mirrors the
// FPGA-current cells, ties the FPGA-voltage cells.
func BenchmarkTrain(b *testing.B) {
	for _, v := range []struct {
		name     string
		tieHeavy bool
	}{{"separable", false}, {"ties", true}} {
		b.Run(v.name, func(b *testing.B) {
			X, Y := paperShaped(3, v.tieHeavy)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Train(Config{Rand: rand.New(rand.NewSource(int64(i)))}, X, Y, 39); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTrainAllocsBounded pins the allocation contract of Train: one
// probability slice per leaf, one node slice per tree, and a fixed set
// of per-Train scratch buffers. Nothing may allocate per node visited or
// per split position evaluated.
func TestTrainAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	X, Y := paperShaped(3, false)
	r := rand.New(rand.NewSource(1))
	const trees = 20
	var f *Forest
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if f, err = Train(Config{Trees: trees, Rand: r}, X, Y, 39); err != nil {
			t.Fatal(err)
		}
	})
	leaves := 0
	for _, tr := range f.trees {
		for _, n := range tr.nodes {
			if n.feature < 0 {
				leaves++
			}
		}
	}
	const perTrain = 32
	if bound := float64(leaves + trees + perTrain); allocs > bound {
		t.Fatalf("Train allocated %v objects for %d leaves in %d trees, want <= %v", allocs, leaves, trees, bound)
	}
	t.Logf("%v allocs for %d leaves in %d trees", allocs, leaves, trees)
}
