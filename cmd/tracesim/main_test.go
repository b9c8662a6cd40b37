package main

import (
	"reflect"
	"strings"
	"testing"

	"tracepre/internal/core"
)

// TestWindowedStats checks the -timeline windows: none is shorter than
// the window length, their sums stay within the run totals, and taking
// the Snapshots leaves the run itself untouched — the timeline run's
// Result equals core.RunBenchmark's for the same configuration.
func TestWindowedStats(t *testing.T) {
	const budget, every = 200_000, 10_000
	cfg := core.PreconConfig(64, 64)
	res, wins, err := runTimeline("gcc", cfg, budget, every)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) < 5 {
		t.Fatalf("windows = %d", len(wins))
	}
	var sumI, sumM uint64
	for _, w := range wins {
		if w.instrs < every {
			t.Errorf("short window: %d", w.instrs)
		}
		sumI += w.instrs
		sumM += w.misses
	}
	if sumI > res.Instructions {
		t.Errorf("window instructions %d exceed total %d", sumI, res.Instructions)
	}
	if sumM > res.TCMisses() {
		t.Errorf("window misses %d exceed total %d", sumM, res.TCMisses())
	}
	if sumM == 0 {
		t.Error("no misses in any window")
	}
	want, err := core.RunBenchmark("gcc", cfg, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("timeline run diverged from RunBenchmark:\n got %+v\nwant %+v", res, want)
	}
}

// TestSampleRejectsTimeline: a sampled run keeps no per-window
// statistics, so -sample with -timeline must fail flag validation with
// a one-line error instead of silently printing no timeline.
func TestSampleRejectsTimeline(t *testing.T) {
	if _, err := sampleFlags(2_000_000, 0, -1, -1, 0); err != nil {
		t.Fatalf("-sample without -timeline rejected: %v", err)
	}
	_, err := sampleFlags(2_000_000, 100_000, -1, -1, 0)
	if err == nil {
		t.Fatal("-sample -timeline accepted")
	}
	if !strings.Contains(err.Error(), "-timeline") || strings.ContainsRune(err.Error(), '\n') {
		t.Fatalf("error %q is not a one-line message naming -timeline", err)
	}
	// The remaining -sample flags are still validated.
	if _, err := sampleFlags(2_000_000, 0, 0, -1, 0); err == nil {
		t.Fatal("-sample-detail 0 accepted")
	}
}

// TestSamplePlanValidation covers the -sample flag combinations that
// sampleFlags accepts without -timeline: valid ones yield a plan that
// carries the overrides, invalid ones a one-line error.
func TestSamplePlanValidation(t *testing.T) {
	cases := []struct {
		name     string
		budget   uint64
		detail   int64
		warm     int64
		targetCI float64
		wantErr  string
	}{
		{name: "auto plan", budget: 2_000_000, detail: -1, warm: -1},
		{name: "explicit lengths", budget: 2_000_000, detail: 1000, warm: 500},
		{name: "zero warm is legal", budget: 2_000_000, detail: 1000, warm: 0},
		{name: "adaptive target", budget: 2_000_000, detail: -1, warm: -1, targetCI: 0.05},
		{name: "zero budget", budget: 0, detail: -1, warm: -1, wantErr: "positive instruction budget"},
		{name: "zero detail", budget: 2_000_000, detail: 0, warm: -1, wantErr: "must be positive"},
		{name: "negative detail", budget: 2_000_000, detail: -7, warm: -1, wantErr: "must be positive"},
		{name: "negative warm", budget: 2_000_000, detail: -1, warm: -3, wantErr: "cannot be negative"},
		{name: "negative target", budget: 2_000_000, detail: -1, warm: -1, targetCI: -0.1, wantErr: "cannot be negative"},
		{name: "warm exceeds skip", budget: 2_000_000, detail: -1, warm: 70_000, wantErr: "exceeds"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := sampleFlags(c.budget, 0, c.detail, c.warm, c.targetCI)
			if c.wantErr != "" {
				if err == nil {
					t.Fatalf("sampleFlags accepted %+v: %+v", c, p)
				}
				if !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("error %q does not mention %q", err, c.wantErr)
				}
				if strings.ContainsRune(err.Error(), '\n') {
					t.Fatalf("error is not one line: %q", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("sampleFlags rejected %+v: %v", c, err)
			}
			if c.detail > 0 && p.Detail != uint64(c.detail) {
				t.Errorf("detail override ignored: %+v", p)
			}
			if c.warm >= 0 && p.Warm != uint64(c.warm) {
				t.Errorf("warm override ignored: %+v", p)
			}
			if p.TargetRelCI != c.targetCI {
				t.Errorf("target CI not threaded: %+v", p)
			}
			if err := p.Validate(); err != nil {
				t.Errorf("returned plan invalid: %v", err)
			}
		})
	}
}
