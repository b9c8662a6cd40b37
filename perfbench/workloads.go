package main

import (
	"fmt"
	"sort"
	"strings"

	"tracepre/internal/core"
	"tracepre/internal/harness"
	"tracepre/internal/pipeline"
	"tracepre/internal/sample"
)

// workloadSpec is one named sweep the benchmark runs: a harness.Matrix
// shape whose generator seed comes from the command line.
type workloadSpec struct {
	name    string
	benches []string
	budget  uint64
	points  func() []harness.ConfigPoint
	// seedsPerRun generator seeds make up one run's inputs: --seed n
	// selects seeds n*seedsPerRun ... n*seedsPerRun+seedsPerRun-1, so
	// one run averages over several generated programs of each
	// benchmark and --seed 0 includes the default (unperturbed) one.
	seedsPerRun int
	// sampled runs every cell under sample.PlanForBudget(budget).
	sampled bool
}

// workloads are the benchmark's sweeps. Budgets are sized so one sweep
// takes a few seconds of host time on two cores: long enough to be
// steady, short enough that a run holds several fresh processes.
var workloads = []workloadSpec{
	{
		// The Figure 5 PB>0 grid: the engine and trace supply dominate.
		name:        "fig5-precon",
		benches:     []string{"gcc", "go"},
		budget:      500_000,
		points:      fig5PreconPoints,
		seedsPerRun: 4,
	},
	{
		// Figure 8 with the full backend timing model and fill-unit
		// preprocessing; half the cells run the engine.
		name:        "fig8-timing",
		benches:     []string{"gcc", "go", "perl", "vortex"},
		budget:      300_000,
		points:      fig8Points,
		seedsPerRun: 2,
	},
	{
		// The ablation-precon variants: one sets Select.AlignMod, so
		// every group mixes SelectConfigs.
		name:        "ablation-mixed-select",
		benches:     []string{"gcc", "vortex"},
		budget:      500_000,
		points:      ablationPoints,
		seedsPerRun: 4,
	},
	{
		// The fig5-precon cells at paper scale, sampled.
		name:        "fig5-sampled-200M",
		benches:     []string{"gcc", "go"},
		budget:      200_000_000,
		points:      fig5PreconPoints,
		seedsPerRun: 1,
		sampled:     true,
	},
}

// runSeeds returns the generator seeds of run seed n.
func (w workloadSpec) runSeeds(n int64) []int64 {
	seeds := make([]int64, w.seedsPerRun)
	for i := range seeds {
		seeds[i] = n*int64(w.seedsPerRun) + int64(i)
	}
	return seeds
}

// workloadByName looks a workload up by its command-line name.
func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// matrix declares the workload's sweep over the given generator seeds.
func (w workloadSpec) matrix(seeds []int64) harness.Matrix {
	return harness.Matrix{Name: w.name, Benches: w.benches, Seeds: seeds, Budget: w.budget, Points: w.points()}
}

// plan returns the sampling plan, or nil for a full-detail workload.
func (w workloadSpec) plan() *sample.Plan {
	if !w.sampled {
		return nil
	}
	p := sample.PlanForBudget(w.budget)
	return &p
}

// options returns the harness options of one timed sweep.
func (w workloadSpec) options(workers int, progress harness.ProgressFunc) []harness.Option {
	opts := []harness.Option{harness.WithWorkers(workers), harness.WithProgress(progress)}
	if p := w.plan(); p != nil {
		opts = append(opts, harness.WithSampling(*p))
	}
	return opts
}

// cellCount is the number of cells one sweep over the seeds runs.
func (w workloadSpec) cellCount(seeds []int64) int {
	return len(w.benches) * len(seeds) * len(w.points())
}

// fig5PreconPoints is the Figure 5 storage grid with a nonzero
// preconstruction buffer: 9 (trace cache, buffer) points.
func fig5PreconPoints() []harness.ConfigPoint {
	var pts []harness.ConfigPoint
	for _, pb := range core.Figure5PBSizes {
		if pb == 0 {
			continue
		}
		for _, tc := range core.Figure5TCSizes {
			if pb >= 256 && tc >= 1024 {
				continue // beyond the paper's area range
			}
			pts = append(pts, harness.ConfigPoint{Name: fmt.Sprintf("tc%d/pb%d", tc, pb), Cfg: core.PreconConfig(tc, pb)})
		}
	}
	return pts
}

// fig8Points are Figure 8's four timing configurations.
func fig8Points() []harness.ConfigPoint {
	return []harness.ConfigPoint{
		{Name: "base", Cfg: core.TimingConfig(core.BaselineConfig(256), false)},
		{Name: "precon", Cfg: core.TimingConfig(core.PreconConfig(128, 128), false)},
		{Name: "preproc", Cfg: core.TimingConfig(core.BaselineConfig(256), true)},
		{Name: "both", Cfg: core.TimingConfig(core.PreconConfig(128, 128), true)},
	}
}

// ablationPoints are the ablation-precon experiment's variants of the
// 256 TC + 256 PB configuration, one mechanism changed in each.
func ablationPoints() []harness.ConfigPoint {
	variants := []struct {
		name string
		mut  func(*pipeline.Config)
	}{
		{"paper", func(*pipeline.Config) {}},
		{"no-align", func(c *pipeline.Config) { c.Select.AlignMod = 16 }},
		{"1-constructor", func(c *pipeline.Config) { c.Precon.NumConstructors = 1 }},
		{"no-forking", func(c *pipeline.Config) { c.Precon.DecisionDepth = 0 }},
		{"stack-4", func(c *pipeline.Config) { c.Precon.StackDepth = 4 }},
		{"prefetch-64", func(c *pipeline.Config) { c.Precon.PrefetchInstrs = 64 }},
		{"plain-lru", func(c *pipeline.Config) { c.Buffers.PlainLRU = true }},
		{"resolve-indirect", func(c *pipeline.Config) { c.Precon.ResolveIndirects = true }},
	}
	pts := make([]harness.ConfigPoint, len(variants))
	for i, v := range variants {
		cfg := core.PreconConfig(256, 256)
		v.mut(&cfg)
		pts[i] = harness.ConfigPoint{Name: v.name, Cfg: cfg}
	}
	return pts
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
