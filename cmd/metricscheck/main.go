// Command metricscheck validates the obs HTTP surface with the
// repository's own parsers. It is the CI smoke-test companion of the
// obs endpoints:
//
//   - OpenMetrics text (/metrics): scrape, validate structure (TYPE
//     metadata, counter conventions, histogram bucket monotonicity, the
//     # EOF terminator), and optionally require specific families.
//   - SSE snapshots (/metrics/stream): read N frames and validate each
//     embedded snapshot's invariants (-stream N).
//
// Usage:
//
//	metricscheck FILE                 # validate a saved exposition
//	metricscheck -url http://host:port/metrics
//	metricscheck -require sim_ticks,core_sampler_samples FILE
//	some-scraper | metricscheck -     # validate stdin
//	metricscheck -stream 3 -url http://host:port
//
// Exit status: 0 valid, 1 invalid or unreachable, 2 usage error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/openmetrics"
)

func main() {
	url := flag.String("url", "", "scrape this URL instead of reading a file (for -stream: the server base URL)")
	require := flag.String("require", "", "comma-separated family names that must be present")
	quiet := flag.Bool("q", false, "suppress the summary line (errors still print)")
	timeout := flag.Duration("timeout", 10*time.Second, "HTTP timeout for -url")
	streamN := flag.Int("stream", 0, "read this many SSE frames from /metrics/stream and validate each snapshot")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "metricscheck: "+format+"\n", args...)
		os.Exit(1)
	}
	if *streamN > 0 {
		if *url == "" {
			fmt.Fprintln(os.Stderr, "metricscheck: -stream needs -url pointing at a running obs server")
			os.Exit(2)
		}
		if err := checkStream(*url, *streamN, *timeout, *quiet); err != nil {
			fail("%v", err)
		}
		return
	}

	var in io.ReadCloser
	var src string
	switch {
	case *url != "":
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "metricscheck: -url and a file argument are mutually exclusive")
			os.Exit(2)
		}
		client := &http.Client{Timeout: *timeout}
		resp, err := client.Get(*url)
		if err != nil {
			fail("%v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fail("%s: %s", *url, resp.Status)
		}
		in, src = resp.Body, *url
	case flag.NArg() == 1 && flag.Arg(0) == "-":
		in, src = os.Stdin, "stdin"
	case flag.NArg() == 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		in, src = f, flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "usage: metricscheck [-url URL | FILE | -] [-require fam1,fam2] [-stream N]")
		os.Exit(2)
	}

	e, err := openmetrics.Parse(in)
	if err != nil {
		fail("%s: %v", src, err)
	}
	if err := e.Validate(); err != nil {
		fail("%s: %v", src, err)
	}
	if *require != "" {
		var missing []string
		for _, name := range strings.Split(*require, ",") {
			name = strings.TrimSpace(name)
			if name != "" && e.Family(name) == nil {
				missing = append(missing, name)
			}
		}
		if len(missing) > 0 {
			fail("%s: missing required families: %s (have: %s)",
				src, strings.Join(missing, ", "), strings.Join(e.Names(), ", "))
		}
	}
	if !*quiet {
		samples := 0
		for _, f := range e.Families {
			samples += len(f.Samples)
		}
		fmt.Printf("%s: valid OpenMetrics exposition: %d families, %d samples\n",
			src, len(e.Families), samples)
	}
}

// checkStream connects to baseURL's /metrics/stream SSE endpoint, reads
// n frames, and validates each embedded snapshot.
func checkStream(baseURL string, n int, timeout time.Duration, quiet bool) error {
	base := baseURL
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u := strings.TrimRight(base, "/")
	if !strings.Contains(u, "/metrics/stream") {
		u += "/metrics/stream"
	}
	client := &http.Client{Timeout: timeout}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", u, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	frames := 0
	var data strings.Builder
	for sc.Scan() && frames < n {
		line := sc.Text()
		switch {
		case line == "":
			if data.Len() == 0 {
				continue
			}
			frames++
			var snap obs.Snapshot
			if err := json.Unmarshal([]byte(data.String()), &snap); err != nil {
				return fmt.Errorf("%s: frame %d: decoding snapshot: %v", u, frames, err)
			}
			if err := validateSnapshot(snap); err != nil {
				return fmt.Errorf("%s: frame %d: %v", u, frames, err)
			}
			data.Reset()
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		}
	}
	if err := sc.Err(); err != nil && frames < n {
		return fmt.Errorf("%s: after %d frame(s): %v", u, frames, err)
	}
	if frames < n {
		return fmt.Errorf("%s: stream ended after %d of %d frame(s)", u, frames, n)
	}
	if !quiet {
		fmt.Printf("%s: %d valid snapshot frame(s)\n", u, frames)
	}
	return nil
}

// validateSnapshot checks the structural invariants every snapshot
// frame must satisfy, whatever the workload.
func validateSnapshot(s obs.Snapshot) error {
	if s.TakenAt.IsZero() {
		return fmt.Errorf("snapshot has a zero taken_at timestamp")
	}
	for name, v := range s.Counters {
		if name == "" {
			return fmt.Errorf("snapshot has an unnamed counter")
		}
		if v < 0 {
			return fmt.Errorf("counter %s is negative (%d)", name, v)
		}
	}
	for name, h := range s.Histograms {
		if h.Count < 0 {
			return fmt.Errorf("histogram %s has negative count %d", name, h.Count)
		}
		if h.Count == 0 {
			continue
		}
		if h.Min > h.Max {
			return fmt.Errorf("histogram %s: min %g > max %g", name, h.Min, h.Max)
		}
		if h.Mean < h.Min || h.Mean > h.Max {
			return fmt.Errorf("histogram %s: mean %g outside [%g, %g]", name, h.Mean, h.Min, h.Max)
		}
		for _, q := range []struct {
			name string
			v    float64
		}{{"p50", h.P50}, {"p95", h.P95}, {"p99", h.P99}} {
			if q.v < h.Min || q.v > h.Max {
				return fmt.Errorf("histogram %s: %s %g outside [%g, %g]", name, q.name, q.v, h.Min, h.Max)
			}
		}
		if h.P50 > h.P95 || h.P95 > h.P99 {
			return fmt.Errorf("histogram %s: quantiles not monotone (p50 %g, p95 %g, p99 %g)",
				name, h.P50, h.P95, h.P99)
		}
	}
	return nil
}
