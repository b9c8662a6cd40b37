package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// profilePackages are the groups a CPU profile's samples fold into:
// the simulator's packages under tracepre/internal, the benchmark's own
// driver loop (package main), clock reads (package time: in a traced
// run, the cost of timing the layers), the Go runtime, and the rest.
var profilePackages = []string{
	"precon", "frontend", "tracecache", "trace", "emulator", "pipeline", "tpred",
	"bpred", "cache", "mem", "sample", "preproc", "isa", "driver", "time", "runtime", "other",
}

// profileGroup maps a pprof function name to its profilePackages entry.
func profileGroup(fn string) string {
	switch {
	case strings.HasPrefix(fn, "tracepre/internal/"):
		pkg, _, _ := strings.Cut(strings.TrimPrefix(fn, "tracepre/internal/"), ".")
		for _, p := range profilePackages {
			if p == pkg {
				return pkg
			}
		}
	case strings.HasPrefix(fn, "main."):
		return "driver"
	case strings.HasPrefix(fn, "time."):
		return "time"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// foldTop folds `go tool pprof -top` text output by the leaf frame: each
// row's flat time goes to its function's package group. It returns each
// group's share of all flat time.
func foldTop(text string) (map[string]float64, error) {
	flat := map[string]float64{}
	var total float64
	header := false
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == "flat" && fields[1] == "flat%" {
			header = true
			continue
		}
		if !header || len(fields) < 6 {
			continue
		}
		d, err := parseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		flat[profileGroup(fields[5])] += d
		total += d
	}
	if !header {
		return nil, fmt.Errorf("no pprof -top table in output")
	}
	shares := map[string]float64{}
	for _, p := range profilePackages {
		if total > 0 {
			shares[p] = flat[p] / total
		} else {
			shares[p] = 0
		}
	}
	return shares, nil
}

// parseDuration reads pprof's sample-time notation ("0", "10ms",
// "1.20s", "1.50mins") as seconds.
func parseDuration(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("unknown duration %q", s)
}

// profileShares runs the toolchain's pprof over a CPU profile and folds
// its flat times by package.
func profileShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", path).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Stderr.Write(ee.Stderr)
		}
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTop(string(out))
}
