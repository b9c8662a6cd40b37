package harness

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync/atomic"

	"tracepre/internal/emulator"
	"tracepre/internal/pipeline"
	"tracepre/internal/sample"
	"tracepre/internal/trace"
)

// decodePasses counts full decode passes over recorded streams: one per
// group. The decode-once contract — a group of N cells performs exactly
// 1 pass, not N — is asserted against this counter by
// TestBroadcastDecodesOnce.
var decodePasses atomic.Uint64

// DecodePasses reports how many stream decode passes have run
// process-wide.
func DecodePasses() uint64 { return decodePasses.Load() }

// member is one cell's simulator inside a group. Full-detail members
// step with RunTrace; sampled members advance through their Runner.
type member struct {
	cell   *Cell
	sim    *pipeline.Simulator
	runner *sample.Runner // sampled groups only
	done   bool           // wants no more input
}

// selectGroup holds the members of a group that share one
// SelectConfig: each decoded chunk is segmented once for all of them,
// and every trace fans out to the live members while its dyns are hot
// in cache.
type selectGroup struct {
	seg        *trace.ChunkSegmenter
	members    []*member
	live       int
	segmenting bool // false after a raw skip that bypassed segmentation
}

// leader is the first member still wanting input. Sampled members of a
// select group share plan, budget and trace sequence, so their
// schedules advance in lockstep and the leader speaks for all of them.
func (sg *selectGroup) leader() *member {
	for _, m := range sg.members {
		if !m.done {
			return m
		}
	}
	return nil
}

// group is one decode-once unit: the cells of a sweep that replay one
// recorded (bench, seed, budget) stream, or a lone cell.
type group struct {
	m     Matrix
	bench string
	plan  *sample.Plan // nil: full detail
	sels  []*selectGroup
}

// runGroup executes cells that share one recorded stream — a sweep's
// (bench, seed) group, or a single cell as a group of one. The stream
// is decoded into chunks exactly once; members are split by
// SelectConfig and each split segments every chunk once. Under a
// sampling plan each split's leader decides for the whole split
// whether an instruction stretch is skipped raw or fed as traces. A
// member that finishes early — its budget consumed, or adaptive
// sampling met its target — goes dormant while the rest keep
// consuming.
func runGroup(ctx context.Context, m Matrix, cells []*Cell, plan *sample.Plan) error {
	bench, seed := cells[0].Bench, cells[0].Seed
	im, err := ImageSeed(bench, seed)
	if err != nil {
		return fmt.Errorf("harness: %s: %s: %w", m.Name, bench, err)
	}
	st, err := streams.get(streamKey{name: bench, seed: seed, budget: m.Budget}, im)
	if err != nil {
		return fmt.Errorf("harness: %s: %s: %w", m.Name, bench, err)
	}

	g := &group{m: m, bench: bench, plan: plan}
	bySel := map[trace.SelectConfig]*selectGroup{}
	for _, c := range cells {
		cfg := c.Point.Cfg
		if plan != nil {
			cfg.FFObservePrecon = plan.ObservePrecon
		}
		mb := &member{cell: c}
		if mb.sim, err = pipeline.New(im, cfg); err == nil {
			if plan != nil {
				mb.runner, err = sample.NewRunner(mb.sim, *plan, m.Budget)
			} else {
				err = mb.sim.StartChunked(m.Budget)
			}
		}
		if err != nil {
			return g.cellErr(mb, err)
		}
		sg := bySel[cfg.Select]
		if sg == nil {
			sg = &selectGroup{seg: trace.NewChunkSegmenter(cfg.Select), segmenting: true}
			bySel[cfg.Select] = sg
			g.sels = append(g.sels, sg)
		}
		sg.members = append(sg.members, mb)
		sg.live++
	}

	// Label CPU profiles so -cpuprofile output from cmd/tablegen
	// attributes time per group.
	point := cells[0].Point.Name
	if len(cells) > 1 {
		point = fmt.Sprintf("group(%d)", len(cells))
	}
	pprof.Do(ctx, pprof.Labels("bench", bench, "point", point), func(ctx context.Context) {
		err = g.drive(ctx, st)
	})
	if err != nil {
		return err
	}
	return g.finish()
}

// drive decodes the stream once and feeds each chunk to every select
// group until all members are done.
func (g *group) drive(ctx context.Context, st *emulator.Stream) error {
	decodePasses.Add(1)
	cr := st.DecodeChunks(0)
	defer cr.Close()
	for g.live() {
		chunk, ok := cr.Next()
		if !ok {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, sg := range g.sels {
			var err error
			if g.plan != nil {
				err = g.feedSampled(sg, chunk)
			} else {
				err = g.feedFull(sg, chunk)
			}
			if err != nil {
				return err
			}
		}
	}
	if err := cr.Err(); err != nil {
		return fmt.Errorf("harness: %s: %s: %w", g.m.Name, g.bench, err)
	}
	return nil
}

func (g *group) live() bool {
	for _, sg := range g.sels {
		if sg.live > 0 {
			return true
		}
	}
	return false
}

// feedFull segments a chunk and steps every live member over each
// trace.
func (g *group) feedFull(sg *selectGroup, chunk []emulator.Dyn) error {
	for len(chunk) > 0 && sg.live > 0 {
		used, tr, dyns := sg.seg.Feed(chunk)
		if tr == nil {
			return nil
		}
		chunk = chunk[used:]
		for _, mb := range sg.members {
			if mb.done {
				continue
			}
			done, err := mb.sim.RunTrace(tr, dyns)
			if err != nil {
				return g.cellErr(mb, err)
			}
			if done {
				mb.done = true
				sg.live--
			}
		}
	}
	return nil
}

// feedSampled walks a chunk through the select group's sampling
// schedule. With WarmModel off, a fast-forward stretch is skipped raw —
// decoded but never segmented — and the segmenter restarts at warm
// entry. With a ModelWarm tail, segmentation runs continuously so trace
// boundaries stay aligned with a full run's, and the traces of a raw
// stretch are merely withheld from the simulators (SkipRaw): the split
// pays one segmentation for the raw head instead of one warm model per
// member.
func (g *group) feedSampled(sg *selectGroup, chunk []emulator.Dyn) error {
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

// stepSampled advances every live runner of the select group by one
// step: the trace when tr is non-nil, otherwise a raw skip of n
// instructions.
func (g *group) stepSampled(sg *selectGroup, n uint64, tr *trace.Trace, dyns []emulator.Dyn) error {
	for _, mb := range sg.members {
		if mb.done {
			continue
		}
		var err error
		if tr == nil {
			err = mb.runner.SkipRaw(n)
		} else {
			_, err = mb.runner.Feed(tr, dyns)
		}
		if err != nil {
			return g.cellErr(mb, err)
		}
		if mb.runner.Done() {
			mb.done = true
			sg.live--
		}
	}
	return nil
}

// finish seals every member's run into its cell.
func (g *group) finish() error {
	for _, sg := range g.sels {
		for _, mb := range sg.members {
			c := mb.cell
			var err error
			if mb.runner != nil {
				if c.Sample, err = mb.runner.Finish(); err == nil {
					c.Result = c.Sample.Aggregate
				}
			} else {
				c.Result, err = mb.sim.Finish()
			}
			if err != nil {
				return g.cellErr(mb, err)
			}
		}
	}
	return nil
}

func (g *group) cellErr(mb *member, err error) error {
	return fmt.Errorf("harness: %s: %s/%s: %w", g.m.Name, mb.cell.Bench, mb.cell.Point.Name, err)
}

// runGroups partitions the grid's cells into stream-sharing groups —
// one per (bench, seed) — and returns them in declaration order.
func runGroups(g *Grid) [][]int {
	type gkey struct {
		bench string
		seed  int64
	}
	index := map[gkey]int{}
	var groups [][]int
	for i := range g.Cells {
		k := gkey{g.Cells[i].Bench, g.Cells[i].Seed}
		gi, ok := index[k]
		if !ok {
			gi = len(groups)
			index[k] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups
}

// runCell runs one configuration as a group of one: the single-cell
// entry points (RunBenchmark, RunBenchmarkSampled) share the sweep
// driver. Their signatures carry no context, so the run cannot be
// cancelled.
func runCell(name string, seed int64, cfg pipeline.Config, budget uint64, plan *sample.Plan) (*Cell, error) {
	c := &Cell{Bench: name, Seed: seed, Point: ConfigPoint{Name: "config", Cfg: cfg}}
	return c, runGroup(context.TODO(), Matrix{Name: "run", Budget: budget}, []*Cell{c}, plan)
}

// RunBenchmark simulates one benchmark (with an optional generator
// seed perturbation) under the configuration for the given
// committed-instruction budget, sharing recordings through the stream
// cache. This is the single-cell form of Run.
func RunBenchmark(name string, seed int64, cfg pipeline.Config, budget uint64) (pipeline.Result, error) {
	c, err := runCell(name, seed, cfg, budget, nil)
	return c.Result, err
}

// RunBenchmarkSampled is the single-cell sampled form of RunBenchmark:
// one benchmark, one configuration, sampled under the plan.
func RunBenchmarkSampled(name string, seed int64, cfg pipeline.Config, budget uint64, plan sample.Plan) (*sample.Stats, error) {
	c, err := runCell(name, seed, cfg, budget, &plan)
	return c.Sample, err
}
