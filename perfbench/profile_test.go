package main

import (
	"math"
	"testing"
)

// A trimmed `go tool pprof -top` listing as the go1.24 toolchain prints it.
const topSample = `File: perfbench
Type: cpu
Time: 2026-10-17 02:00:00 UTC
Duration: 4.21s, Total samples = 8s (190.02%)
Showing nodes accounting for 8s, 100% of 8s total
      flat  flat%   sum%        cum   cum%
     2.50s 31.25% 31.25%      3.10s 38.75%  tracepre/internal/precon.(*constructor).walk
        1s 12.50% 43.75%         1s 12.50%  tracepre/internal/trace.(*ChunkSegmenter).Feed (inline)
     900ms 11.25% 55.00%      900ms 11.25%  runtime.mallocgc
     600ms  7.50% 62.50%      4.50s 56.25%  tracepre/internal/pipeline.(*Simulator).onTrace
     500ms  6.25% 68.75%      500ms  6.25%  main.(*groupDriver).feedFull
     500ms  6.25% 75.00%      500ms  6.25%  time.now
     400ms  5.00% 80.00%      400ms  5.00%  internal/runtime/atomic.(*Uint32).Load
     400ms  5.00% 85.00%      400ms  5.00%  tracepre/internal/tracecache.(*TraceCache).Probe
     300ms  3.75% 88.75%      300ms  3.75%  tracepre/internal/workload.Generate
     0.50s  6.25% 95.00%      0.50s  6.25%  tracepre/internal/emulator.(*Replayer).NextInto
     400ms  5.00%   100%      400ms  5.00%  tracepre/internal/harness.forEach.func1
         0     0%   100%      4.50s 56.25%  tracepre/internal/frontend.(*Frontend).Supply
`

func TestFoldTopByLeafPackage(t *testing.T) {
	shares, err := foldTop(topSample)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"precon":     2.5 / 8,
		"trace":      1.0 / 8,
		"runtime":    1.3 / 8, // runtime.mallocgc + internal/runtime/atomic
		"pipeline":   0.6 / 8,
		"driver":     0.5 / 8,
		"tracecache": 0.4 / 8,
		"emulator":   0.5 / 8,
		"time":       0.5 / 8,
		"other":      0.7 / 8, // workload and harness frames
		"frontend":   0,       // cumulative time only: never the leaf
	}
	var sum float64
	for _, p := range profilePackages {
		v, ok := shares[p]
		if !ok {
			t.Errorf("no share for %s", p)
		}
		sum += v
		if w := want[p]; math.Abs(v-w) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", p, v, w)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestFoldTopRejectsOtherOutput(t *testing.T) {
	if _, err := foldTop("no profile here\n"); err == nil {
		t.Error("folding text without a -top table succeeded")
	}
	if _, err := foldTop("      flat  flat%   sum%        cum   cum%\n  1.5parsecs 1% 1% 1s 1%  main.f\n"); err == nil {
		t.Error("folding an unknown duration unit succeeded")
	}
}

func TestParseDuration(t *testing.T) {
	for in, want := range map[string]float64{
		"0": 0, "10ms": 0.01, "1.20s": 1.2, "250us": 250e-6, "3µs": 3e-6, "1.50mins": 90, "2hrs": 7200, "40ns": 40e-9,
	} {
		got, err := parseDuration(in)
		if err != nil || math.Abs(got-want) > 1e-15 {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}
