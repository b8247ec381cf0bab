package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// host identifies the machine and build a result was measured on.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Commit is the git revision the binary was built from, when the
	// build ran inside a git work tree; "unknown" otherwise.
	Commit string `json:"commit"`
	// Binary is a digest of the benchmark binary, which identifies the
	// code measured even where no commit is recorded.
	Binary string `json:"binary"`
}

func hostInfo(workers int) host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	h.Binary, _ = binaryID()
	return h
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

var binaryDigest string

// binaryID is the first 16 hex digits of the running binary's SHA-256.
func binaryID() (string, error) {
	if binaryDigest != "" {
		return binaryDigest, nil
	}
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	binaryDigest = hex.EncodeToString(h.Sum(nil))[:16]
	return binaryDigest, nil
}

// hostMismatches lists the host fields on which two results differ.
// Results from different machines, worker counts or toolchains are not
// comparable; the binary and commit are expected to differ.
func hostMismatches(a, b host) []string {
	var out []string
	add := func(name string, x, y any) {
		if x != y {
			out = append(out, fmt.Sprintf("%s: %v vs %v", name, x, y))
		}
	}
	add("nproc", a.NumCPU, b.NumCPU)
	add("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	add("workers", a.Workers, b.Workers)
	add("cpu_model", a.CPUModel, b.CPUModel)
	add("go_version", a.GoVersion, b.GoVersion)
	add("goos/goarch", a.GOOS+"/"+a.GOARCH, b.GOOS+"/"+b.GOARCH)
	return out
}

func loadResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareResults prints the metrics two results share, old against
// new. A host difference is printed first and last, and makes the
// comparison exit with an error so it never passes silently.
func compareResults(w io.Writer, oldPath, newPath string) error {
	a, err := loadResult(oldPath)
	if err != nil {
		return err
	}
	b, err := loadResult(newPath)
	if err != nil {
		return err
	}
	mismatch := hostMismatches(a.Host, b.Host)
	for _, m := range mismatch {
		fmt.Fprintf(w, "HOST MISMATCH %s\n", m)
	}
	if a.Workload != b.Workload || a.Seconds != b.Seconds || a.Trace != b.Trace {
		fmt.Fprintf(w, "SETTINGS DIFFER: %s/%ds/trace%d vs %s/%ds/trace%d\n",
			a.Workload, a.Seconds, a.Trace, b.Workload, b.Seconds, b.Trace)
	}
	fmt.Fprintf(w, "%-32s %14s %14s %9s  unit\n", "metric", "old", "new", "change")
	all := map[string]metric{}
	for _, m := range []map[string]metric{b.Metrics, b.Quality, b.Extra} {
		for k, v := range m {
			all[k] = v
		}
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, n := range names {
		old, ok := lookupMetric(a, n)
		if !ok {
			continue
		}
		nv := all[n]
		change := "n/a"
		if old.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(nv.Value-old.Value)/old.Value)
		}
		fmt.Fprintf(w, "%-32s %14.6g %14.6g %9s  %s\n", n, old.Value, nv.Value, change, nv.Unit)
	}
	if len(mismatch) > 0 {
		return fmt.Errorf("results come from different hosts (%s); the comparison above is not valid", strings.Join(mismatch, "; "))
	}
	return nil
}

func lookupMetric(r *result, name string) (metric, bool) {
	for _, m := range []map[string]metric{r.Metrics, r.Quality, r.Extra} {
		if v, ok := m[name]; ok {
			return v, true
		}
	}
	return metric{}, false
}
