package harness

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"tracepre/internal/pipeline"
	"tracepre/internal/sample"
	"tracepre/internal/stats"
)

func samplingTestMatrix(budget uint64) Matrix {
	return Matrix{
		Name:    "sampling-test",
		Benches: []string{"compress", "li"},
		Budget:  budget,
		Points: []ConfigPoint{
			{Name: "base", Cfg: pipeline.DefaultConfig()},
			{Name: "pb64", Cfg: pipeline.DefaultConfig().WithPrecon(64)},
		},
	}
}

func testPlan() sample.Plan {
	return sample.Plan{Detail: 2_000, Warm: 3_000, Skip: 18_000, WarmModel: true}
}

// TestSampledSweep pins the sampled sweep contract: every cell carries
// interval statistics, its Result is the interval aggregate, and the
// progress callback reports the same Done/Total sequence as a
// full-detail sweep — sampling changes what a cell computes, not how
// the sweep is scheduled or reported.
func TestSampledSweep(t *testing.T) {
	const budget = 100_000
	m := samplingTestMatrix(budget)
	plan := testPlan()

	var snaps []Progress
	g, err := Run(context.Background(), m,
		WithSampling(plan),
		WithWorkers(1),
		WithProgress(func(p Progress) { snaps = append(snaps, p) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cells) != 4 {
		t.Fatalf("%d cells, want 4", len(g.Cells))
	}
	for i := range g.Cells {
		c := &g.Cells[i]
		if c.Sample == nil {
			t.Fatalf("%s/%s: no sample stats", c.Bench, c.Point.Name)
		}
		if got, want := len(c.Sample.Intervals), plan.Intervals(budget); got != want && got != want-1 {
			t.Errorf("%s/%s: %d intervals, want %d (or one fewer)", c.Bench, c.Point.Name, got, want)
		}
		if !reflect.DeepEqual(c.Result, c.Sample.Aggregate) {
			t.Errorf("%s/%s: Result is not the interval aggregate", c.Bench, c.Point.Name)
		}
		if ci := MetricCI(IPC, c); ci.Mean <= 0 || ci.N != len(c.Sample.Intervals) {
			t.Errorf("%s/%s: degenerate IPC CI %+v", c.Bench, c.Point.Name, ci)
		}
	}
	// Progress: one warm-up snapshot (Done 0) then one per cell, Total
	// fixed at 4 — identical shape to an unsampled sweep.
	if len(snaps) != 5 {
		t.Fatalf("%d progress snapshots, want 5", len(snaps))
	}
	for i, p := range snaps {
		if p.Total != 4 || p.Done != i {
			t.Errorf("snapshot %d = {Done %d Total %d}, want {%d 4}", i, p.Done, p.Total, i)
		}
	}
}

// TestSampledBroadcastMatchesPerCell runs a sampled matrix as groups
// and as groups of one: a group shares one decode and one segmentation
// but must produce bit-identical interval statistics to each cell run
// alone.
func TestSampledBroadcastMatchesPerCell(t *testing.T) {
	matchGroupsOfOne(t, samplingTestMatrix(100_000), WithSampling(testPlan()))
}

// TestSampledMixedSelectGroup covers a sampled group whose members
// disagree on SelectConfig, with and without the warm model: each
// SelectConfig split keeps its own schedule leader, raw skips and
// segmenter, yet the whole group costs a single decode pass and every
// member equals the cell run alone.
func TestSampledMixedSelectGroup(t *testing.T) {
	short := pipeline.DefaultConfig().WithPrecon(64)
	short.Select.MaxLen = 8
	m := Matrix{
		Name:    "sampled-mixed",
		Benches: []string{"compress"},
		Budget:  100_000,
		Points: []ConfigPoint{
			{Name: "base", Cfg: pipeline.DefaultConfig()},
			{Name: "len8-pb64", Cfg: short},
			{Name: "pb64", Cfg: pipeline.DefaultConfig().WithPrecon(64)},
		},
	}
	for _, warmModel := range []bool{true, false} {
		plan := testPlan()
		plan.WarmModel = warmModel
		ctx := context.Background()
		if _, err := Run(ctx, m, WithSampling(plan)); err != nil {
			t.Fatal(err) // records the stream outside the counted window
		}
		before := DecodePasses()
		if _, err := Run(ctx, m, WithSampling(plan)); err != nil {
			t.Fatal(err)
		}
		if got := DecodePasses() - before; got != 1 {
			t.Errorf("warmModel=%v: mixed-select sampled group took %d decode passes, want 1", warmModel, got)
		}
		matchGroupsOfOne(t, m, WithSampling(plan))
	}
}

// TestSampledRawSkipBroadcast covers the WarmModel=false group path:
// fast-forward stretches are raw-skipped (no segmentation) and the
// shared segmenter restarts at each warm boundary.
func TestSampledRawSkipBroadcast(t *testing.T) {
	const budget = 100_000
	m := samplingTestMatrix(budget)
	plan := testPlan()
	plan.WarmModel = false

	g, err := Run(context.Background(), m, WithSampling(plan))
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Cells {
		c := &g.Cells[i]
		if c.Sample.FFInstrs == 0 || len(c.Sample.Intervals) == 0 {
			t.Errorf("%s/%s: raw-skip run captured nothing: %+v", c.Bench, c.Point.Name, c.Sample)
		}
	}
}

func TestContextWithSampling(t *testing.T) {
	const budget = 50_000
	m := Matrix{Name: "ctx-sampling", Benches: []string{"compress"}, Budget: budget,
		Points: []ConfigPoint{{Name: "base", Cfg: pipeline.DefaultConfig()}}}
	ctx := ContextWithSampling(context.Background(), testPlan())
	g, err := Run(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if g.MustCell("compress", "base").Sample == nil {
		t.Fatal("context-carried plan was not applied")
	}
}

func TestSampledErrorPct(t *testing.T) {
	full := &Cell{Result: pipeline.Result{Instructions: 1000, Cycles: 500}}    // IPC 2
	sampled := &Cell{Result: pipeline.Result{Instructions: 1000, Cycles: 525}} // IPC ~1.9048
	got := SampledErrorPct(IPC, full, sampled)
	if got < 4.7 || got > 4.8 {
		t.Errorf("SampledErrorPct = %v, want ~4.76", got)
	}
	zero := &Cell{}
	if SampledErrorPct(IPC, zero, zero) != 0 {
		t.Errorf("zero-over-zero must be 0")
	}
}

// TestRenderCITables pins the ±half-width cell rendering across all
// three renderers: stats.CI cells format as "mean ±half" in ASCII and
// CSV and as a {mean, half, n} object in JSON.
func TestRenderCITables(t *testing.T) {
	specs := []TableSpec{{
		Title:   "sampled",
		Headers: []string{"bench", "ipc"},
		Rows: [][]any{
			{"gcc", stats.CI{Mean: 1.2345, Half: 0.056, N: 9}},
			{"go", stats.CI{Mean: 2.5, Half: 0, N: 1}},
		},
	}}

	ascii := RenderASCII(specs)
	wantASCII := "" +
		"sampled\n" +
		"bench  ipc        \n" +
		"------------------\n" +
		"gcc    1.23 ±0.06 \n" +
		"go     2.50 ±0.00 \n"
	if ascii != wantASCII {
		t.Errorf("ASCII rendering changed:\n got %q\nwant %q", ascii, wantASCII)
	}

	csv := RenderCSV(specs)
	wantCSV := "" +
		"# sampled\n" +
		"bench,ipc\n" +
		"gcc,1.23 ±0.06\n" +
		"go,2.50 ±0.00\n"
	if csv != wantCSV {
		t.Errorf("CSV rendering changed:\n got %q\nwant %q", csv, wantCSV)
	}

	js, err := RenderJSON(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"Mean": 1.2345`, `"Half": 0.056`, `"N": 9`} {
		if !strings.Contains(string(js), want) {
			t.Errorf("JSON rendering missing %s:\n%s", want, js)
		}
	}
}
