package harness

import (
	"context"
	"fmt"
	"testing"
)

// TestResultCheckOnSweeps runs a Figure 8-shaped matrix (full timing,
// with and without preconstruction and preprocessing) and a Figure
// 5-shaped one (trace cache x buffer sizes, supply only) at a small
// budget, and requires every cell's Result to pass its accounting
// check.
func TestResultCheckOnSweeps(t *testing.T) {
	timing := func(name string, tc, pb int, preprocess bool) ConfigPoint {
		cfg := baseline(tc)
		if pb > 0 {
			cfg = precon(tc, pb)
		}
		cfg.FullTiming = true
		cfg.PreprocEnabled = preprocess
		return ConfigPoint{Name: name, Cfg: cfg}
	}
	fig8 := Matrix{
		Name: "fig8-shaped", Benches: []string{"gcc", "go", "perl", "vortex"}, Budget: 30_000,
		Points: []ConfigPoint{
			timing("base", 256, 0, false),
			timing("precon", 128, 128, false),
			timing("preproc", 256, 0, true),
			timing("both", 128, 128, true),
		},
	}
	fig5 := Matrix{Name: "fig5-shaped", Benches: []string{"gcc", "go"}, Budget: 30_000}
	for _, pb := range []int{0, 64, 256} {
		for _, tc := range []int{64, 256, 1024} {
			cfg := baseline(tc)
			if pb > 0 {
				cfg = precon(tc, pb)
			}
			fig5.Points = append(fig5.Points, ConfigPoint{Name: fmt.Sprintf("tc%d/pb%d", tc, pb), Cfg: cfg})
		}
	}
	for _, m := range []Matrix{fig8, fig5} {
		g, err := Run(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range g.Cells {
			if err := c.Result.Check(c.Point.Cfg); err != nil {
				t.Errorf("%s %s/%s: %v", m.Name, c.Bench, c.Point.Name, err)
			}
		}
	}
}
