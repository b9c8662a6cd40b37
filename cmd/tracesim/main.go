// Command tracesim runs one benchmark through the trace processor model
// and prints the instruction-supply and (optionally) timing statistics.
//
// Usage:
//
//	tracesim -bench gcc -tc 256 -pb 256 -n 2000000
//	tracesim -bench vortex -tc 128 -pb 128 -timing -preproc
//	tracesim -bench gcc -tc 256 -pb 256 -n 200000000 -sample
//
// -sample switches to statistically sampled simulation: long
// fast-forward stretches between short full-detail measurement units,
// reporting each metric as a mean with a Student-t 95% confidence
// interval (see internal/sample). The schedule is derived from the
// budget; -sample-detail, -sample-warm and -sample-target-ci override
// the unit length, detailed warm-up length, and adaptive stopping
// target.
//
// -timeline W prints the trace-cache miss rate per window of at least W
// retired instructions as a sparkline. The windows are differences of
// simulator Snapshots taken during a full-detail run, so -timeline
// cannot be combined with -sample.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"tracepre/internal/core"
	"tracepre/internal/emulator"
	"tracepre/internal/pipeline"
	"tracepre/internal/sample"
	"tracepre/internal/stats"
	"tracepre/internal/trace"
)

// window is one -timeline window: the instructions retired in it and
// the demanded traces the slow path built.
type window struct {
	instrs, misses uint64
}

// runTimeline simulates cfg over the first budget instructions of the
// benchmark and closes a window at the first trace boundary where at
// least every instructions have retired since the last one. Both counts
// of a window are differences of two Snapshots, which leave the run
// untouched: the returned Result equals core.RunBenchmark's.
func runTimeline(bench string, cfg pipeline.Config, budget, every uint64) (pipeline.Result, []window, error) {
	im, err := core.Image(bench)
	if err != nil {
		return pipeline.Result{}, nil, err
	}
	st, err := emulator.Record(im, budget)
	if err != nil {
		return pipeline.Result{}, nil, err
	}
	sim, err := pipeline.New(im, cfg)
	if err != nil {
		return pipeline.Result{}, nil, err
	}
	if err := sim.StartChunked(budget); err != nil {
		return pipeline.Result{}, nil, err
	}
	var (
		wins  []window
		last  pipeline.Result
		since uint64 // instructions demanded since the last window
	)
	err = trace.Walk(st, cfg.Select, func(tr *trace.Trace, dyns []emulator.Dyn) bool {
		done, _ := sim.RunTrace(tr, dyns) // cannot fail: the run is open
		// len(dyns) overcounts a trace RunTrace dropped at the budget;
		// the snapshot holds what actually retired.
		if since += uint64(len(dyns)); since >= every {
			snap := sim.Snapshot()
			if n := snap.Instructions - last.Instructions; n >= every {
				wins = append(wins, window{n, snap.TCMisses() - last.TCMisses()})
				last = snap
			}
			since = snap.Instructions - last.Instructions
		}
		return !done
	})
	if err != nil {
		return pipeline.Result{}, nil, err
	}
	res, err := sim.Finish()
	return res, wins, err
}

// sampleFlags validates -sample and the flags that accompany it and
// returns the sampling schedule. -timeline needs a full-detail run: a
// sampled result keeps only measurement-unit aggregates, no windows.
func sampleFlags(budget, timeline uint64, detail, warm int64, targetCI float64) (sample.Plan, error) {
	if timeline > 0 {
		return sample.Plan{}, fmt.Errorf("-timeline %d cannot be combined with -sample: sampled runs keep no per-window statistics", timeline)
	}
	return core.SamplePlan(budget, detail, warm, targetCI)
}

func main() {
	var (
		bench        = flag.String("bench", "gcc", "benchmark name (see -list)")
		tc           = flag.Int("tc", 512, "trace cache entries")
		pb           = flag.Int("pb", 0, "preconstruction buffer entries (0 disables)")
		n            = flag.Uint64("n", core.DefaultBudget, "committed instructions to simulate")
		timing       = flag.Bool("timing", false, "enable the full backend timing model")
		preproc      = flag.Bool("preproc", false, "enable fill-unit preprocessing (implies -timing)")
		timeline     = flag.Uint64("timeline", 0, "print a miss-rate sparkline, one point per this many instructions")
		doSample     = flag.Bool("sample", false, "statistically sampled simulation: fast-forward between short full-detail measurement units")
		sampleDetail = flag.Int64("sample-detail", -1, "measurement unit length in instructions (-1: derive from budget)")
		sampleWarm   = flag.Int64("sample-warm", -1, "detailed warm-up instructions before each unit (-1: derive from budget)")
		sampleCI     = flag.Float64("sample-target-ci", 0, "stop early once the IPC 95% CI relative half-width reaches this (0: run the whole budget)")
		list         = flag.Bool("list", false, "list benchmarks and exit")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "tracesim:", err)
		os.Exit(1)
	}

	if *list {
		for _, b := range core.Benchmarks() {
			fmt.Println(b)
		}
		return
	}
	if *n == 0 {
		fail(errors.New("-n 0: nothing to simulate"))
	}

	var plan sample.Plan
	if *doSample {
		var err error
		if plan, err = sampleFlags(*n, *timeline, *sampleDetail, *sampleWarm, *sampleCI); err != nil {
			fail(err)
		}
	}

	cfg := core.BaselineConfig(*tc)
	if *pb > 0 {
		cfg = core.PreconConfig(*tc, *pb)
	}
	if *timing || *preproc {
		cfg = core.TimingConfig(cfg, *preproc)
	}

	var (
		res     pipeline.Result
		sampled *sample.Stats
		wins    []window
		err     error
	)
	switch {
	case *doSample:
		if sampled, err = core.RunBenchmarkSampled(*bench, cfg, *n, plan); err == nil {
			res = sampled.Aggregate
		}
	case *timeline > 0:
		res, wins, err = runTimeline(*bench, cfg, *n, *timeline)
	default:
		res, err = core.RunBenchmark(*bench, cfg, *n)
	}
	if err != nil {
		fail(err)
	}

	t := stats.NewTable(fmt.Sprintf("tracesim %s: TC=%d PB=%d budget=%d", *bench, *tc, *pb, *n),
		"metric", "value")
	t.AddRow("instructions", res.Instructions)
	t.AddRow("traces", res.Traces)
	t.AddRow("trace cache hits", res.TCHits())
	t.AddRow("supplied by preconstruction", res.PreconSupplied())
	t.AddRow("trace cache misses", res.TCMisses())
	t.AddRow("trace misses / 1000 instr", res.TCMissPerKI())
	t.AddRow("instr from i-cache / 1000 instr", res.ICacheInstrsPerKI())
	t.AddRow("i-cache misses / 1000 instr", res.ICacheMissesPerKI())
	t.AddRow("instr from i-cache misses / 1000 instr", res.InstrsFromICMissesPerKI())
	t.AddRow("next-trace predictor accuracy", fmt.Sprintf("%.3f", res.Pred.Accuracy()))
	if *timing || *preproc {
		t.AddRow("cycles", res.Cycles)
		t.AddRow("IPC", fmt.Sprintf("%.3f", res.IPC()))
		t.AddRow("loads", res.Loads)
		t.AddRow("d-cache misses", res.DCacheMisses)
	}
	fmt.Print(t.String())

	if sampled != nil {
		p := sampled.Plan
		t3 := stats.NewTable(
			fmt.Sprintf("sampled: detail %d / warm %d / skip %d, %d intervals",
				p.Detail, p.Warm, p.Skip, len(sampled.Intervals)),
			"metric", "mean ±95% CI")
		t3.AddRow("IPC", sampled.IPCCI())
		t3.AddRow("trace misses / 1000 instr", sampled.MetricCI(pipeline.Result.TCMissPerKI))
		t3.AddRow("instr from i-cache / 1000 instr", sampled.MetricCI(pipeline.Result.ICacheInstrsPerKI))
		t3.AddRow("i-cache misses / 1000 instr", sampled.MetricCI(pipeline.Result.ICacheMissesPerKI))
		t3.AddRow("streamed instructions", sampled.Streamed)
		t3.AddRow("measured instructions", sampled.MeasuredInstrs)
		t3.AddRow("warm instructions", sampled.WarmInstrs)
		t3.AddRow("fast-forwarded instructions", sampled.FFInstrs)
		fmt.Print(t3.String())
	}

	if len(wins) > 0 {
		series := make([]float64, len(wins))
		peak := 0.0
		for i, w := range wins {
			series[i] = float64(w.misses) * 1000 / float64(w.instrs)
			if series[i] > peak {
				peak = series[i]
			}
		}
		fmt.Printf("\nmiss/KI timeline (%d instr/window, peak %.1f):\n%s\n",
			*timeline, peak, stats.Sparkline(series))
	}

	if *pb > 0 {
		p := res.Precon
		t2 := stats.NewTable("preconstruction engine", "metric", "value")
		t2.AddRow("regions activated", p.RegionsActivated)
		t2.AddRow("regions caught up", p.RegionsCaughtUp)
		t2.AddRow("regions exhausted (prefetch cache)", p.RegionsExhausted)
		t2.AddRow("regions bounded (buffers)", p.RegionsBounded)
		t2.AddRow("traces built", p.TracesBuilt)
		t2.AddRow("duplicates suppressed", p.TracesDuplicate)
		t2.AddRow("lines fetched", p.LinesFetched)
		t2.AddRow("engine i-cache misses", p.ICacheMisses)
		fmt.Print(t2.String())
	}
}
