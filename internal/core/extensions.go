package core

import (
	"context"
	"fmt"

	"tracepre/internal/harness"
	"tracepre/internal/pipeline"
)

// AdaptiveRow compares the paper's static trace-cache/buffer split with
// the dynamically partitioned design suggested as future work in §5.1.
type AdaptiveRow struct {
	Bench          string
	FixedMissPerKI float64 // 256 TC + 256 PB, static
	AdaptMissPerKI float64 // 512 unified, adaptive partition
	FinalPBShare   float64
	Adjustments    uint64
}

// AdaptiveResult holds the dynamic-partitioning study.
type AdaptiveResult struct {
	Rows   []AdaptiveRow
	Budget uint64
}

// AdaptivePartitionStudy runs the extension experiment: same total
// storage, static 50/50 split versus the feedback-partitioned unified
// store. The paper's motivation: gcc does best with a small buffer and
// go with a large one, so no single static split serves both.
func AdaptivePartitionStudy(budget uint64, benches []string) (*AdaptiveResult, error) {
	return AdaptivePartitionStudyCtx(context.Background(), budget, benches)
}

// AdaptivePartitionStudyCtx is AdaptivePartitionStudy with sweep
// cancellation and progress via ctx.
func AdaptivePartitionStudyCtx(ctx context.Context, budget uint64, benches []string) (*AdaptiveResult, error) {
	adaptCfg := PreconConfig(256, 256)
	adaptCfg.AdaptivePartition = true
	g, err := harness.Run(ctx, harness.Matrix{
		Name: "ext-adaptive", Benches: benches, Budget: budget,
		Points: []harness.ConfigPoint{
			{Name: "fixed", Cfg: PreconConfig(256, 256)},
			{Name: "adaptive", Cfg: adaptCfg},
		},
	})
	if err != nil {
		return nil, err
	}
	out := &AdaptiveResult{Budget: budget, Rows: make([]AdaptiveRow, len(benches))}
	for i, b := range benches {
		fixed, adapt := g.MustCell(b, "fixed").Result, g.MustCell(b, "adaptive").Result
		out.Rows[i] = AdaptiveRow{
			Bench:          b,
			FixedMissPerKI: harness.TCMissPerKI.Of(fixed),
			AdaptMissPerKI: harness.TCMissPerKI.Of(adapt),
			FinalPBShare:   adapt.AdaptivePBShare,
			Adjustments:    adapt.AdaptiveAdjusts,
		}
	}
	return out, nil
}

// TableSpecs renders the study.
func (r *AdaptiveResult) TableSpecs() []harness.TableSpec {
	spec := harness.TableSpec{
		Title:   fmt.Sprintf("Extension: dynamic TC/PB partitioning, 512 total entries (budget %d)", r.Budget),
		Headers: []string{"benchmark", "fixed 256+256 miss/KI", "adaptive miss/KI", "final PB share", "adjustments"},
	}
	for _, row := range r.Rows {
		spec.Rows = append(spec.Rows, []any{row.Bench, row.FixedMissPerKI, row.AdaptMissPerKI,
			row.FinalPBShare, row.Adjustments})
	}
	return []harness.TableSpec{spec}
}

// Table renders the study as ASCII text.
func (r *AdaptiveResult) Table() string { return harness.RenderASCII(r.TableSpecs()) }

// AblationRow is one engine variant's effect on one benchmark.
type AblationRow struct {
	Variant        string
	Bench          string
	MissPerKI      float64
	PreconSupplied uint64
}

// AblationResult holds a preconstruction-engine ablation sweep.
type AblationResult struct {
	Rows   []AblationRow
	Budget uint64
	Title  string
}

// preconVariant pairs a label with a configuration mutation.
type preconVariant struct {
	name string
	mut  func(*pipeline.Config)
}

// preconVariants are the design-choice ablations called out in
// DESIGN.md: each removes or resizes one mechanism of §3.
func preconVariants() []preconVariant {
	return []preconVariant{
		{"paper (default)", nil},
		{"no alignment heuristic", func(c *pipeline.Config) {
			// AlignMod 16 never fires below the 16-instruction cap,
			// so loop-exit quantization is effectively off.
			c.Select.AlignMod = 16
		}},
		{"1 constructor", func(c *pipeline.Config) { c.Precon.NumConstructors = 1 }},
		{"no branch forking", func(c *pipeline.Config) { c.Precon.DecisionDepth = 0 }},
		{"stack depth 4", func(c *pipeline.Config) { c.Precon.StackDepth = 4 }},
		{"prefetch cache 64 instr", func(c *pipeline.Config) { c.Precon.PrefetchInstrs = 64 }},
		{"plain-LRU buffers", func(c *pipeline.Config) { c.Buffers.PlainLRU = true }},
		{"+ resolve indirect targets (ext)", func(c *pipeline.Config) {
			c.Precon.ResolveIndirects = true
		}},
	}
}

// variantPoints turns labeled config mutations over a base config into
// named sweep points (the shared shape of every ablation experiment).
func variantPoints(base func() pipeline.Config, names []string, muts []func(*pipeline.Config)) []harness.ConfigPoint {
	pts := make([]harness.ConfigPoint, len(names))
	for i, name := range names {
		cfg := base()
		if muts[i] != nil {
			muts[i](&cfg)
		}
		pts[i] = harness.ConfigPoint{Name: name, Cfg: cfg}
	}
	return pts
}

// PreconAblations measures how each §3 mechanism contributes: every
// variant runs the 256 TC + 256 PB configuration with one knob changed.
func PreconAblations(budget uint64, benches []string) (*AblationResult, error) {
	return PreconAblationsCtx(context.Background(), budget, benches)
}

// PreconAblationsCtx is PreconAblations with sweep cancellation and
// progress via ctx.
func PreconAblationsCtx(ctx context.Context, budget uint64, benches []string) (*AblationResult, error) {
	variants := preconVariants()
	names := make([]string, len(variants))
	muts := make([]func(*pipeline.Config), len(variants))
	for i, v := range variants {
		names[i], muts[i] = v.name, v.mut
	}
	g, err := harness.Run(ctx, harness.Matrix{
		Name: "ablation-precon", Benches: benches, Budget: budget,
		Points: variantPoints(func() pipeline.Config { return PreconConfig(256, 256) }, names, muts),
	})
	if err != nil {
		return nil, err
	}
	out := &AblationResult{
		Budget: budget,
		Title:  "Ablation: preconstruction engine mechanisms (256 TC + 256 PB)",
	}
	for _, name := range names {
		for _, b := range benches {
			res := g.MustCell(b, name).Result
			out.Rows = append(out.Rows, AblationRow{
				Variant: name, Bench: b,
				MissPerKI:      harness.TCMissPerKI.Of(res),
				PreconSupplied: res.PreconSupplied(),
			})
		}
	}
	return out, nil
}

// TableSpecs renders the ablation sweep.
func (r *AblationResult) TableSpecs() []harness.TableSpec {
	spec := harness.TableSpec{
		Title:   fmt.Sprintf("%s (budget %d)", r.Title, r.Budget),
		Headers: []string{"variant", "benchmark", "miss/KI", "supplied by precon"},
	}
	for _, row := range r.Rows {
		spec.Rows = append(spec.Rows, []any{row.Variant, row.Bench, row.MissPerKI, row.PreconSupplied})
	}
	return []harness.TableSpec{spec}
}

// Table renders the ablation sweep as ASCII text.
func (r *AblationResult) Table() string { return harness.RenderASCII(r.TableSpecs()) }

// PredictorRow is one next-trace-predictor variant's accuracy.
type PredictorRow struct {
	Variant  string
	Bench    string
	Accuracy float64
}

// PredictorResult holds the predictor ablation.
type PredictorResult struct {
	Rows   []PredictorRow
	Budget uint64
}

// predictorVariantNames lists the §6 predictor ablations in
// presentation order.
var predictorVariantNames = []string{
	"hybrid + RHS (paper)",
	"no return history stack",
	"no secondary table",
	"path table only",
}

// predictorVariantMuts are the config mutations matching
// predictorVariantNames.
var predictorVariantMuts = []func(*pipeline.Config){
	nil,
	func(c *pipeline.Config) { c.Pred.DisableRHS = true },
	func(c *pipeline.Config) { c.Pred.DisableSecondary = true },
	func(c *pipeline.Config) {
		c.Pred.DisableRHS = true
		c.Pred.DisableSecondary = true
	},
}

// PredictorAblations measures the §6 predictor enhancements: the full
// hybrid with return history stack, the hybrid without the RHS, and
// the bare path table without the last-trace fallback.
func PredictorAblations(budget uint64, benches []string) (*PredictorResult, error) {
	return PredictorAblationsCtx(context.Background(), budget, benches)
}

// PredictorAblationsCtx is PredictorAblations with sweep cancellation
// and progress via ctx.
func PredictorAblationsCtx(ctx context.Context, budget uint64, benches []string) (*PredictorResult, error) {
	g, err := harness.Run(ctx, harness.Matrix{
		Name: "ablation-tpred", Benches: benches, Budget: budget,
		Points: variantPoints(func() pipeline.Config { return BaselineConfig(512) },
			predictorVariantNames, predictorVariantMuts),
	})
	if err != nil {
		return nil, err
	}
	out := &PredictorResult{Budget: budget}
	for _, name := range predictorVariantNames {
		for _, b := range benches {
			out.Rows = append(out.Rows, PredictorRow{
				Variant: name, Bench: b,
				Accuracy: harness.PredAccuracy.Of(g.MustCell(b, name).Result),
			})
		}
	}
	return out, nil
}

// TableSpecs renders the predictor ablation.
func (r *PredictorResult) TableSpecs() []harness.TableSpec {
	spec := harness.TableSpec{
		Title:   fmt.Sprintf("Ablation: next-trace predictor configuration (budget %d)", r.Budget),
		Headers: []string{"variant", "benchmark", "accuracy"},
	}
	for _, row := range r.Rows {
		spec.Rows = append(spec.Rows, []any{row.Variant, row.Bench, fmt.Sprintf("%.4f", row.Accuracy)})
	}
	return []harness.TableSpec{spec}
}

// Table renders the predictor ablation as ASCII text.
func (r *PredictorResult) Table() string { return harness.RenderASCII(r.TableSpecs()) }

// extensionExperiments registers the beyond-the-paper studies.
func extensionExperiments() []Experiment {
	return []Experiment{
		{
			ID:             "ext-adaptive",
			Title:          "Extension: dynamic TC/PB partitioning (paper's suggested future work)",
			DefaultBenches: TimingBenchmarks,
			Result: func(ctx context.Context, budget uint64, benches []string) (harness.Tabler, error) {
				return AdaptivePartitionStudyCtx(ctx, budget, benches)
			},
		},
		{
			ID:             "ablation-precon",
			Title:          "Ablation: preconstruction engine mechanisms",
			DefaultBenches: func() []string { return []string{"gcc", "vortex"} },
			Result: func(ctx context.Context, budget uint64, benches []string) (harness.Tabler, error) {
				return PreconAblationsCtx(ctx, budget, benches)
			},
		},
		{
			ID:             "sensitivity",
			Title:          "Sensitivity: does the iso-area preconstruction win survive model-parameter changes?",
			DefaultBenches: func() []string { return []string{"gcc"} },
			Result: func(ctx context.Context, budget uint64, benches []string) (harness.Tabler, error) {
				return SensitivityCtx(ctx, budget, benches)
			},
		},
		{
			ID:             "seeds",
			Title:          "Across program seeds: is the result a property of the workload class?",
			DefaultBenches: func() []string { return []string{"gcc", "vortex"} },
			Result: func(ctx context.Context, budget uint64, benches []string) (harness.Tabler, error) {
				return MultiSeedCtx(ctx, budget, benches, 5)
			},
		},
		{
			ID:             "ablation-tpred",
			Title:          "Ablation: next-trace predictor (hybrid, secondary table, RHS)",
			DefaultBenches: func() []string { return []string{"gcc", "go", "perl"} },
			Result: func(ctx context.Context, budget uint64, benches []string) (harness.Tabler, error) {
				return PredictorAblationsCtx(ctx, budget, benches)
			},
		},
		{
			ID:             "ext-frontend",
			Title:          "Extension: frontend supplier hit rates and slow-path port arbitration",
			DefaultBenches: func() []string { return []string{"gcc", "vortex"} },
			Result: func(ctx context.Context, budget uint64, benches []string) (harness.Tabler, error) {
				return FrontendStudyCtx(ctx, budget, benches)
			},
		},
		{
			ID:             "ext-sampling",
			Title:          "Extension: statistically sampled simulation — confidence intervals vs full detail",
			DefaultBenches: func() []string { return []string{"gcc", "go"} },
			Result: func(ctx context.Context, budget uint64, benches []string) (harness.Tabler, error) {
				return SamplingStudyCtx(ctx, budget, benches)
			},
		},
		{
			ID:             "ext-memory",
			Title:          "Extension: memory sensitivity — modeled shared L2, MSHRs, precon interference",
			DefaultBenches: func() []string { return []string{"gcc"} },
			Result: func(ctx context.Context, budget uint64, benches []string) (harness.Tabler, error) {
				return MemoryStudyCtx(ctx, budget, benches)
			},
		},
	}
}
