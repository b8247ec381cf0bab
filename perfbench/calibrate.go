package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"syscall"
	"time"
)

// The baseline host's speed drifts by up to 1.7× over a few minutes as
// its shared load changes, while iterations within one run agree far
// better. The benchmark therefore times a fixed reference kernel of its
// own, interleaved with the workload, and reports end-to-end times
// scaled to the speed at which that kernel takes refNominal. Program
// changes cannot move the kernel, so a slower or faster program still
// shows; a slower or faster host largely cancels. The unscaled host
// times are reported beside the scaled ones.

// refNominal is the reference kernel's duration that scaled times are
// expressed at, about the kernel's time on the baseline host when that
// host is quiet.
const refNominal = 80 * time.Millisecond

const (
	refComputeSteps = 12_000_000
	refTableWords   = 1 << 15 // 256 KiB of uint64, cache-resident
	refMemoryWords  = 1 << 22 // 16 MiB of uint32, beyond the caches
	refMemorySteps  = 400_000
)

// refSink keeps the kernel's results live so the compiler cannot drop
// the work.
var refSink []uint64

// referenceKernel runs the reference work on each of workers goroutines
// and returns its wall time. The work has two parts, because the host's
// slowdowns hit compute-bound and memory-bound code differently: a
// compute part (xorshift, float and a cache-resident table) and a
// memory part (random swaps over a fresh 16 MiB mapping). The mapping is
// unmapped afterwards, so the kernel leaves nothing resident to inflate
// the resident-set peaks the benchmark reports.
func referenceKernel(workers int) (time.Duration, error) {
	out := make([]uint64, workers)
	errs := make([]error, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out[g], errs[g] = referenceWork(uint64(88172645463325252) + uint64(g))
		}(g)
	}
	wg.Wait()
	d := time.Since(start)
	refSink = out
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return d, nil
}

func referenceWork(x uint64) (uint64, error) {
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	table := make([]uint64, refTableWords)
	f := 1.0
	for i := 0; i < refComputeSteps; i++ {
		r := next()
		f = f*1.0000001 + float64(r&1023)*1e-9
		table[r&(refTableWords-1)] += r
	}

	mem, err := syscall.Mmap(-1, 0, 4*refMemoryWords, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	le := binary.LittleEndian
	for i := 0; i < refMemoryWords; i++ {
		le.PutUint32(mem[4*i:], uint32(i))
	}
	for s := 0; s < refMemorySteps; s++ {
		i, j := 4*(next()%refMemoryWords), 4*(next()%refMemoryWords)
		a, b := le.Uint32(mem[i:]), le.Uint32(mem[j:])
		le.PutUint32(mem[i:], b)
		le.PutUint32(mem[j:], a)
	}
	sum := x + uint64(f) + table[x&(refTableWords-1)] + uint64(le.Uint32(mem[4*(x%refMemoryWords):]))
	if err := syscall.Munmap(mem); err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	return sum, nil
}

// hostScale is the factor that turns this run's host times into times at
// reference speed: refNominal over the median reference time.
func hostScale(refs []float64) float64 {
	return ratio(refNominal.Seconds(), median(refs))
}
