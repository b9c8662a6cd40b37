package harness

import (
	"context"
	"reflect"
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/pipeline"
	"tracepre/internal/sample"
)

// seekBudget crosses many sync entries, and seekPlan's raw stretches
// are several sync intervals long, so a sampled group seeks a few times
// per period.
const seekBudget = 15 * emulator.SyncInterval

func seekPlan() sample.Plan {
	return sample.Plan{
		Detail:        2_000,
		Warm:          3_000,
		Skip:          200_000,
		WarmModel:     true,
		ModelWarm:     20_000,
		ObservePrecon: true,
		EngineWarm:    6_000,
		Jitter:        true,
	}
}

// runLinear runs every (bench, seed) group of the matrix through
// driveLinear and returns the cells in grid order.
func runLinear(t *testing.T, m Matrix, plan sample.Plan) []Cell {
	t.Helper()
	var cells []Cell
	for _, b := range m.Benches {
		for _, s := range m.seeds() {
			members := make([]*Cell, len(m.Points))
			for i, p := range m.Points {
				members[i] = &Cell{Bench: b, Seed: s, Point: p}
			}
			g, st, err := newGroup(m, members, &plan)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.driveLinear(st); err != nil {
				t.Fatal(err)
			}
			if err := g.finish(); err != nil {
				t.Fatal(err)
			}
			for _, c := range members {
				cells = append(cells, *c)
			}
		}
	}
	return cells
}

// driveLinear is the seek-free oracle for drive on a sampled group: it
// decodes the whole stream from offset 0, segments every instruction,
// and withholds a raw stretch from the simulators trace by trace
// (SkipRaw per trace) or, with WarmModel off, instruction-exact without
// segmenting.
func (g *group) driveLinear(st *emulator.Stream) error {
	cr := st.DecodeChunks(0)
	defer cr.Close()
	for g.live() {
		chunk, ok := cr.Next()
		if !ok {
			break
		}
		for _, sg := range g.sels {
			if err := g.feedLinear(sg, chunk); err != nil {
				return err
			}
		}
	}
	return cr.Err()
}

func (g *group) feedLinear(sg *selectGroup, chunk []emulator.Dyn) error {
	for len(chunk) > 0 && sg.live > 0 {
		ld := sg.leader().runner
		if !g.plan.WarmModel && ld.Phase() == pipeline.PhaseFastForward {
			n := min(ld.FFRemaining(), uint64(len(chunk)))
			if err := g.stepSampled(sg, n, nil, nil); err != nil {
				return err
			}
			chunk = chunk[n:]
			sg.segmenting = false
			continue
		}
		if !sg.segmenting {
			sg.seg.Reset()
			sg.segmenting = true
		}
		used, tr, dyns := sg.seg.Feed(chunk)
		chunk = chunk[used:]
		if tr == nil {
			return nil
		}
		k := uint64(len(dyns))
		if g.plan.WarmModel && ld.RawFFRemaining() >= k {
			tr = nil
		}
		if err := g.stepSampled(sg, k, tr, dyns); err != nil {
			return err
		}
	}
	return nil
}

// TestSampledSeekMatchesLinear requires the seeking group driver to
// produce exactly the sampled statistics of the linear oracle, which
// decodes and segments every raw stretch, for a warm-model plan, a
// plan without the warm model, and a group mixing three
// SelectConfigs. Each run must also have seeked: it decodes well under
// what the oracle decodes.
func TestSampledSeekMatchesLinear(t *testing.T) {
	noModel := seekPlan()
	noModel.WarmModel = false
	align16 := precon(256, 64)
	align16.Select.AlignMod = 16
	len8 := baseline(256)
	len8.Select.MaxLen = 8
	pts := []ConfigPoint{
		{Name: "tc256", Cfg: baseline(256)},
		{Name: "tc256-pb64", Cfg: precon(256, 64)},
	}
	cases := []struct {
		name string
		plan sample.Plan
		m    Matrix
	}{
		{"model-warm", seekPlan(), Matrix{Benches: []string{"gcc", "go"}, Points: pts}},
		{"no-warm-model", noModel, Matrix{Benches: []string{"gcc"}, Points: pts}},
		{"mixed-select", seekPlan(), Matrix{Benches: []string{"gcc"}, Points: append(pts,
			ConfigPoint{Name: "align16-pb64", Cfg: align16},
			ConfigPoint{Name: "len8", Cfg: len8})}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			m.Name, m.Budget = "seek-"+tc.name, seekBudget
			before := emulator.DecodedInstrs()
			g, err := Run(ctx, m, WithSampling(tc.plan), WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			mid := emulator.DecodedInstrs()
			linear := runLinear(t, m, tc.plan)
			seeking, full := mid-before, emulator.DecodedInstrs()-mid
			if seeking*2 > full {
				t.Errorf("seeking run decoded %d instructions, linear %d: no seek taken", seeking, full)
			}
			for i := range g.Cells {
				a, b := &g.Cells[i], &linear[i]
				if a.Bench != b.Bench || a.Point.Name != b.Point.Name {
					t.Fatalf("cell %d: %s/%s vs oracle %s/%s", i, a.Bench, a.Point.Name, b.Bench, b.Point.Name)
				}
				if len(a.Sample.Intervals) < 4 {
					t.Fatalf("%s/%s: %d intervals, want at least 4", a.Bench, a.Point.Name, len(a.Sample.Intervals))
				}
				if !reflect.DeepEqual(a.Sample, b.Sample) {
					t.Errorf("%s/%s: seeking run's sampled stats differ from the linear oracle's", a.Bench, a.Point.Name)
				}
			}
		})
	}
}
