package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metric is one reported figure: a value with its unit, and for ratios
// the base the ratio was taken over.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Base names the denominator of a ratio ("sysfs read attempts",
	// "runner capacity"); empty for plain quantities.
	Base string `json:"base,omitempty"`
	// N is the sample count behind a percentile or a per-call mean.
	N int `json:"n,omitempty"`
}

// metricNameRE is the benchmark's naming rule: a letter or digit first,
// then letters, digits, '_', '.' and '-', at most 64 characters.
var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name satisfies the metric naming rule.
func validName(name string) bool { return metricNameRE.MatchString(name) }

// metricSet is an ordered collection of named metrics.
type metricSet struct {
	names []string
	m     map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

// put records a metric; it panics on an invalid or repeated name, which
// only a bug in this program can produce.
func (s *metricSet) put(name string, m metric) {
	if !validName(name) {
		panic(fmt.Sprintf("perfbench: invalid metric name %q", name))
	}
	if _, dup := s.m[name]; dup {
		panic(fmt.Sprintf("perfbench: metric %q reported twice", name))
	}
	if m.Unit == "ratio" || m.Unit == "%" {
		if m.Base == "" {
			panic(fmt.Sprintf("perfbench: ratio %q reported without its base", name))
		}
	}
	s.names = append(s.names, name)
	s.m[name] = m
}

// ratio returns num/den, or 0 when den is 0 (a ratio over an empty
// base; the base and its count are reported beside it).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank is the nearest-rank p-th percentile of sorted s.
func nearestRank(s []float64, p float64) float64 {
	return s[nearestRankIndex(len(s), p)]
}

// tailLadder is the set of percentiles the tail rule chooses from.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile applies the reporting rule for timings: the highest
// percentile of the ladder that leaves at least ten samples beyond it.
// It returns 0 and false when n is too small for even the median to
// qualify.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if nearestRankIndex(n, p)+10 <= n-1 {
			return p, true
		}
	}
	return 0, false
}

// nearestRankIndex is the index nearestRank reads for n samples. The
// small epsilon keeps p×n/100 that is whole in exact arithmetic (99.9%
// of 10000) from rounding up a rank in floating point.
func nearestRankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// dist summarizes per-call timings by the reporting rule: the median,
// the tail percentile with its level, and the sample count.
type dist struct {
	N       int
	P50     float64
	Tail    float64 // value at TailPct; the max when no level qualifies
	TailPct float64 // 0 when n is too small for the rule
	Max     float64
}

func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := sortedCopy(xs)
	d := dist{N: len(s), P50: median(s), Max: s[len(s)-1], Tail: s[len(s)-1]}
	if p, ok := tailPercentile(len(s)); ok {
		d.TailPct = p
		d.Tail = nearestRank(s, p)
	}
	return d
}
