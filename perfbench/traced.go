package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	"tracepre/internal/emulator"
	"tracepre/internal/harness"
	"tracepre/internal/pipeline"
	"tracepre/internal/program"
	"tracepre/internal/sample"
	"tracepre/internal/trace"
	"tracepre/internal/workload"
)

// layerTimes accumulates one goroutine's per-layer work: busy time in
// nanoseconds and call counts, gathered around each public call the
// traced driver makes rather than as one span per call.
type layerTimes struct {
	DecodeWaitNs int64  `json:"decode_wait_ns"` // blocked in ChunkedReplayer.Next
	SegmentNs    int64  `json:"segment_ns"`     // ChunkSegmenter.Feed
	RunTraceNs   int64  `json:"run_trace_ns"`   // Simulator.RunTrace or Runner.Feed
	SkipRawNs    int64  `json:"skip_raw_ns"`    // Runner.SkipRaw
	FFWarmNs     int64  `json:"ff_warm_ns"`     // Runner.Feed in PhaseFastForward
	WarmNs       int64  `json:"warm_ns"`        // Runner.Feed in PhaseWarm
	MeasureNs    int64  `json:"measure_ns"`     // Runner.Feed in PhaseMeasure
	NewNs        int64  `json:"new_ns"`         // pipeline.New + StartChunked/NewRunner
	FinishNs     int64  `json:"finish_ns"`      // Simulator.Finish or Runner.Finish
	DecodePasses uint64 `json:"decode_passes"`  // DecodeChunks calls
	SegCalls     uint64 `json:"segment_calls"`
	SegTraces    uint64 `json:"segment_traces"`
	SegInstrs    uint64 `json:"segment_instrs"`
	RunCalls     uint64 `json:"run_calls"`
}

func (a *layerTimes) add(b layerTimes) {
	a.DecodeWaitNs += b.DecodeWaitNs
	a.SegmentNs += b.SegmentNs
	a.RunTraceNs += b.RunTraceNs
	a.SkipRawNs += b.SkipRawNs
	a.FFWarmNs += b.FFWarmNs
	a.WarmNs += b.WarmNs
	a.MeasureNs += b.MeasureNs
	a.NewNs += b.NewNs
	a.FinishNs += b.FinishNs
	a.DecodePasses += b.DecodePasses
	a.SegCalls += b.SegCalls
	a.SegTraces += b.SegTraces
	a.SegInstrs += b.SegInstrs
	a.RunCalls += b.RunCalls
}

// accountedNs is the group time the layers account for.
func (a layerTimes) accountedNs() int64 {
	return a.DecodeWaitNs + a.SegmentNs + a.RunTraceNs + a.SkipRawNs + a.NewNs + a.FinishNs
}

// span is one interval of the traced sweep, in nanoseconds since the
// sweep began; Parent is the enclosing span's ID (0: the sweep).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// groupTrace is one group's record: its span, its sampling-phase spans,
// the wall time each decoded chunk was worked on ([start, end] in
// microseconds since the group began), its layer counters, and the
// remainder of its wall time no layer accounts for.
type groupTrace struct {
	Span          span       `json:"span"`
	Bench         string     `json:"bench"`
	Seed          int64      `json:"seed"`
	Cells         int        `json:"cells"`
	Selects       int        `json:"select_configs"`
	Layers        layerTimes `json:"layers"`
	UnaccountedNs int64      `json:"unaccounted_ns"`
	Phases        []span     `json:"phases,omitempty"`
	ChunksUs      [][2]int32 `json:"chunks_us"`
}

// tracedCell is one cell's outcome in the traced driver.
type tracedCell struct {
	bench    string
	seed     int64
	point    harness.ConfigPoint
	res      pipeline.Result
	ss       *sample.Stats
	engineNs uint64 // whole-run engine time (MeasureOverhead)
}

// setupUnit is one recorded (bench, seed) stream of the traced sweep.
type setupUnit struct {
	bench    string
	seed     int64
	im       *program.Image
	st       *emulator.Stream
	genNs    int64
	recordNs int64
}

// tracedSweep is the traced driver's whole run over the workload.
type tracedSweep struct {
	w     workloadSpec
	plan  *sample.Plan
	epoch time.Time

	units  []*setupUnit
	cells  []tracedCell
	groups []groupTrace
	wall   time.Duration // the sweep after setup

	recordPeakMiB float64 // resident high-water mark of the setup

	mu     sync.Mutex
	layers layerTimes
	nextID int
}

func (s *tracedSweep) now() int64 { return int64(time.Since(s.epoch)) }

// newSpanID hands out span IDs; 0 is the sweep itself.
func (s *tracedSweep) newSpanID() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return s.nextID
}

// runTracedSweep generates and records every (bench, seed) stream,
// then runs one group per stream — the harness's grouping — over the
// same number of workers, with the CPU profile written to profPath.
func runTracedSweep(w workloadSpec, seeds []int64, profPath string) (*tracedSweep, error) {
	s := &tracedSweep{w: w, plan: w.plan(), epoch: time.Now()}
	for _, b := range w.benches {
		for _, sd := range seeds {
			s.units = append(s.units, &setupUnit{bench: b, seed: sd})
		}
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	if err := parallel(len(s.units), workers(), func(i int) error { return s.setup(s.units[i]) }); err != nil {
		return nil, err
	}
	var err error
	if s.recordPeakMiB, err = peakRSSMiB(); err != nil {
		return nil, err
	}

	// Cells in the harness's order: bench, seed, point.
	var groupCells [][]int
	for range s.units {
		var idx []int
		for _, p := range w.points() {
			idx = append(idx, len(s.cells))
			s.cells = append(s.cells, tracedCell{point: p})
		}
		groupCells = append(groupCells, idx)
	}
	for gi, u := range s.units {
		for _, ci := range groupCells[gi] {
			s.cells[ci].bench, s.cells[ci].seed = u.bench, u.seed
		}
	}
	s.groups = make([]groupTrace, len(s.units))

	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	start := time.Now()
	err = parallel(len(s.units), workers(), func(gi int) error { return s.runGroup(gi, groupCells[gi]) })
	s.wall = time.Since(start)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return s, f.Close()
}

// setup generates one benchmark image the way harness.ImageSeed does
// (the seed perturbs the profile's seed) and records its stream.
func (s *tracedSweep) setup(u *setupUnit) error {
	p, err := workload.ByName(u.bench)
	if err != nil {
		return err
	}
	p.Seed += u.seed
	t0 := time.Now()
	if u.im, err = workload.Generate(p); err != nil {
		return fmt.Errorf("%s seed %d: %w", u.bench, u.seed, err)
	}
	t1 := time.Now()
	if u.st, err = emulator.Record(u.im, s.w.budget); err != nil {
		return fmt.Errorf("%s seed %d: %w", u.bench, u.seed, err)
	}
	u.genNs, u.recordNs = int64(t1.Sub(t0)), int64(time.Since(t1))
	return nil
}

// member is one cell's simulator inside a group.
type member struct {
	cell   int
	sim    *pipeline.Simulator
	runner *sample.Runner // sampled workloads only
	done   bool           // full detail: budget consumed
}

// selectGroup is the part of a group sharing one SelectConfig: it
// segments each decoded chunk once and fans every trace out to its
// members.
type selectGroup struct {
	seg        *trace.ChunkSegmenter
	members    []*member
	live       int
	segmenting bool
	phase      string
	phaseStart int64
}

// groupDriver runs one group; its counters are private until merged.
type groupDriver struct {
	s    *tracedSweep
	gt   *groupTrace
	lt   layerTimes
	sels []*selectGroup
}

// runGroup drives one stream's cells: one decode pass, one segmenter
// per distinct SelectConfig, every member stepped over each trace.
func (s *tracedSweep) runGroup(gi int, cellIdx []int) error {
	u := s.units[gi]
	gt := &s.groups[gi]
	*gt = groupTrace{Bench: u.bench, Seed: u.seed, Cells: len(cellIdx)}
	gt.Span = span{ID: s.newSpanID(), Name: fmt.Sprintf("group %s seed %d", u.bench, u.seed), Start: s.now()}
	d := &groupDriver{s: s, gt: gt}

	t0 := s.now()
	bySel := map[trace.SelectConfig]*selectGroup{}
	for _, ci := range cellIdx {
		cfg := s.cells[ci].point.Cfg
		cfg.Precon.MeasureOverhead = true
		// A sampled cell keeps the engine live through fast-forward
		// exactly as the harness configures it under WithSampling.
		if s.plan != nil {
			cfg.FFObservePrecon = s.plan.ObservePrecon
		}
		sim, err := pipeline.New(u.im, cfg)
		if err != nil {
			return d.cellErr(ci, err)
		}
		m := &member{cell: ci, sim: sim}
		if s.plan != nil {
			if m.runner, err = sample.NewRunner(sim, *s.plan, s.w.budget); err != nil {
				return d.cellErr(ci, err)
			}
		} else if err := sim.StartChunked(s.w.budget); err != nil {
			return d.cellErr(ci, err)
		}
		sg, ok := bySel[cfg.Select]
		if !ok {
			sg = &selectGroup{seg: trace.NewChunkSegmenter(cfg.Select), segmenting: true}
			bySel[cfg.Select] = sg
			d.sels = append(d.sels, sg)
		}
		sg.members = append(sg.members, m)
		sg.live++
	}
	gt.Selects = len(d.sels)
	d.lt.NewNs += s.now() - t0

	if err := d.drive(u.st); err != nil {
		return err
	}

	t0 = s.now()
	for _, sg := range d.sels {
		d.closePhase(sg, s.now())
		for _, m := range sg.members {
			c := &s.cells[m.cell]
			var err error
			if m.runner != nil {
				if c.ss, err = m.runner.Finish(); err == nil {
					c.res = c.ss.Aggregate
				}
			} else {
				c.res, err = m.sim.Finish()
			}
			if err != nil {
				return d.cellErr(m.cell, err)
			}
			// Finish sealed the run; Snapshot still folds the whole
			// run's counters, including the engine's measured time
			// outside sampled measurement units.
			c.engineNs = m.sim.Snapshot().Precon.EngineNs()
		}
	}
	d.lt.FinishNs += s.now() - t0

	gt.Span.End = s.now()
	gt.Layers = d.lt
	gt.UnaccountedNs = (gt.Span.End - gt.Span.Start) - d.lt.accountedNs()
	s.mu.Lock()
	s.layers.add(d.lt)
	s.mu.Unlock()
	return nil
}

func (d *groupDriver) cellErr(ci int, err error) error {
	c := d.s.cells[ci]
	return fmt.Errorf("%s seed %d %s: %w", c.bench, c.seed, c.point.Name, err)
}

// drive decodes the group's stream once and feeds each chunk to every
// select group until all members are done. Each layer call is timed
// from its start to its end (the segmenter's end doubling as the
// fan-out's start), so the driver's own loop stays unaccounted.
func (d *groupDriver) drive(st *emulator.Stream) error {
	s := d.s
	d.lt.DecodePasses++
	cr := st.DecodeChunks(0)
	defer cr.Close()
	for d.live() {
		t0 := s.now()
		chunk, ok := cr.Next()
		start := s.now()
		d.lt.DecodeWaitNs += start - t0
		if !ok {
			break
		}
		for _, sg := range d.sels {
			var err error
			if s.plan != nil {
				err = d.feedSampled(sg, chunk)
			} else {
				err = d.feedFull(sg, chunk)
			}
			if err != nil {
				return err
			}
		}
		base := d.gt.Span.Start
		d.gt.ChunksUs = append(d.gt.ChunksUs, [2]int32{int32((start - base) / 1e3), int32((s.now() - base) / 1e3)})
	}
	if err := cr.Err(); err != nil {
		return fmt.Errorf("%s seed %d: %w", d.gt.Bench, d.gt.Seed, err)
	}
	return nil
}

func (d *groupDriver) live() bool {
	for _, sg := range d.sels {
		if sg.live > 0 {
			return true
		}
	}
	return false
}

// feedFull segments a chunk and steps every live member over each
// trace (pipeline.Simulator.RunTrace).
func (d *groupDriver) feedFull(sg *selectGroup, chunk []emulator.Dyn) error {
	s := d.s
	for len(chunk) > 0 && sg.live > 0 {
		t0 := s.now()
		used, tr, dyns := sg.seg.Feed(chunk)
		t1 := s.now()
		d.lt.SegmentNs += t1 - t0
		d.lt.SegCalls++
		if tr == nil {
			return nil
		}
		chunk = chunk[used:]
		d.lt.SegTraces++
		d.lt.SegInstrs += uint64(len(dyns))
		for _, m := range sg.members {
			if m.done {
				continue
			}
			done, err := m.sim.RunTrace(tr, dyns)
			if err != nil {
				return d.cellErr(m.cell, err)
			}
			d.lt.RunCalls++
			if done {
				m.done = true
				sg.live--
			}
		}
		d.lt.RunTraceNs += s.now() - t1
	}
	return nil
}

// feedSampled mirrors the harness's sampled group loop for one select
// group: the leader's schedule decides between raw skips and fed
// traces, and every live runner takes the same step.
func (d *groupDriver) feedSampled(sg *selectGroup, chunk []emulator.Dyn) error {
	s, plan := d.s, d.s.plan
	for len(chunk) > 0 && sg.live > 0 {
		ld := sg.leader()
		if ld == nil {
			return nil
		}
		if !plan.WarmModel && ld.Phase() == pipeline.PhaseFastForward {
			n := min(ld.FFRemaining(), uint64(len(chunk)))
			t0 := s.now()
			d.setPhase(sg, "raw", t0)
			if err := d.fan(sg, func(r *sample.Runner) error { return r.SkipRaw(n) }); err != nil {
				return err
			}
			d.lt.SkipRawNs += s.now() - t0
			chunk = chunk[n:]
			sg.segmenting = false
			continue
		}
		if !sg.segmenting {
			sg.seg.Reset()
			sg.segmenting = true
		}
		t0 := s.now()
		used, tr, dyns := sg.seg.Feed(chunk)
		t1 := s.now()
		d.lt.SegmentNs += t1 - t0
		d.lt.SegCalls++
		chunk = chunk[used:]
		if tr == nil {
			return nil
		}
		d.lt.SegTraces++
		d.lt.SegInstrs += uint64(len(dyns))
		k := uint64(len(dyns))
		if plan.WarmModel && ld.RawFFRemaining() >= k {
			d.setPhase(sg, "raw", t1)
			if err := d.fan(sg, func(r *sample.Runner) error { return r.SkipRaw(k) }); err != nil {
				return err
			}
			d.lt.SkipRawNs += s.now() - t1
			continue
		}
		phase := ld.Phase()
		d.setPhase(sg, phaseName(phase), t1)
		if err := d.fan(sg, func(r *sample.Runner) error { _, err := r.Feed(tr, dyns); return err }); err != nil {
			return err
		}
		dt := s.now() - t1
		d.lt.RunTraceNs += dt
		switch phase {
		case pipeline.PhaseFastForward:
			d.lt.FFWarmNs += dt
		case pipeline.PhaseWarm:
			d.lt.WarmNs += dt
		default:
			d.lt.MeasureNs += dt
		}
	}
	return nil
}

// fan applies one step to every live runner of the select group.
func (d *groupDriver) fan(sg *selectGroup, step func(*sample.Runner) error) error {
	for _, m := range sg.members {
		if m.runner.Done() {
			continue
		}
		if err := step(m.runner); err != nil {
			return d.cellErr(m.cell, err)
		}
		d.lt.RunCalls++
		if m.runner.Done() {
			sg.live--
		}
	}
	return nil
}

// leader is the first runner still wanting input; the group's
// schedules advance in lockstep, so it speaks for all of them.
func (sg *selectGroup) leader() *sample.Runner {
	for _, m := range sg.members {
		if !m.runner.Done() {
			return m.runner
		}
	}
	return nil
}

func phaseName(p pipeline.Phase) string {
	switch p {
	case pipeline.PhaseFastForward:
		return "fast-forward"
	case pipeline.PhaseWarm:
		return "warm"
	}
	return "measure"
}

// setPhase records a sampling-phase span boundary when the select
// group's phase changes.
func (d *groupDriver) setPhase(sg *selectGroup, phase string, at int64) {
	if sg.phase == phase {
		return
	}
	d.closePhase(sg, at)
	sg.phase, sg.phaseStart = phase, at
}

func (d *groupDriver) closePhase(sg *selectGroup, at int64) {
	if sg.phase == "" {
		return
	}
	d.gt.Phases = append(d.gt.Phases, span{ID: d.s.newSpanID(), Parent: d.gt.Span.ID, Name: sg.phase, Start: sg.phaseStart, End: at})
	sg.phase = ""
}

// decodeOnly drains every stream with no consumer work, the decoder's
// own throughput in Minstr/s.
func (s *tracedSweep) decodeOnly() float64 {
	var instrs uint64
	var ns int64
	for _, u := range s.units {
		t0 := time.Now()
		cr := u.st.DecodeChunks(0)
		for {
			chunk, ok := cr.Next()
			if !ok {
				break
			}
			instrs += uint64(len(chunk))
		}
		cr.Close()
		ns += int64(time.Since(t0))
	}
	return float64(instrs) / (float64(ns) / 1e9) / 1e6
}

// parallel runs n jobs in index order over a fixed set of workers and
// returns the first error, like the harness's own fan-out.
func parallel(n, workers int, job func(i int) error) error {
	next := make(chan int)
	errs := make(chan error, n) // one slot per job: senders never block
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := job(i); err != nil {
					errs <- err
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	close(errs)
	return <-errs
}

// runtimeSample is a snapshot of the Go runtime's allocation, GC and
// CPU-class counters.
type runtimeSample struct {
	mallocs, totalAlloc uint64
	numGC               uint32
	gcCPU, totalCPU     float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(m)
	r := runtimeSample{mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc, numGC: ms.NumGC}
	if m[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = m[0].Value.Float64()
	}
	if m[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = m[1].Value.Float64()
	}
	return r
}

// traceDir is where traced runs write their spans.
func traceDir() string { return filepath.Join(outDir(), "trace") }
