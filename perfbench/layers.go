package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"

	"tracepre/internal/harness"
)

// layerMetric is one per-layer metric a traced run reports: its unit,
// which direction is better, and the end-to-end metric and workload it
// should move (BENCHMARK.json has no room for the last).
type layerMetric struct{ name, unit, better, moves string }

// perLayer lists every metric the traced run reports, in BENCHMARK.json
// order. Model counts are summed over cells before dividing; times are
// busy time summed over groups (across both workers).
var perLayer = func() []layerMetric {
	ms := []layerMetric{
		{"workload.generate_s", "s", "lower", "setup_s, all workloads"},
		{"emulator.record_s", "s", "lower", "setup_s, fig5-sampled-200M"},
		{"emulator.record_peak_rss_mib", "MiB", "lower", "memory while recording, fig5-sampled-200M"},
		{"emulator.stream_bytes_per_instr", "B/instr", "lower", "setup_s and peak_rss_mib, fig5-sampled-200M"},
		{"emulator.decode_wait_s", "s", "lower", "sim_minstr_per_s, fig5-sampled-200M"},
		{"emulator.decode_only_minstr_per_s", "Minstr/s", "higher", "sim_minstr_per_s, fig5-sampled-200M"},
		{"emulator.decode_passes", "count", "lower", "sim_minstr_per_s, ablation-mixed-select"},
		{"trace.segment_s", "s", "lower", "sim_minstr_per_s, fig5-sampled-200M and ablation-mixed-select"},
		{"trace.segment_calls", "count", "lower", "sim_minstr_per_s, fig5-sampled-200M and ablation-mixed-select"},
		{"trace.instrs_per_trace", "instr", "higher", "sim_minstr_per_s, fig5-sampled-200M and ablation-mixed-select"},
		{"trace.store_intern_hit_rate", "fraction", "higher", "cpu_s, fig5-precon"},
		{"pipeline.run_trace_s", "s", "lower", "sim_minstr_per_s, fig5-precon and fig8-timing"},
		{"pipeline.new_s", "s", "lower", "sim_minstr_per_s, fig5-precon and fig8-timing"},
		{"pipeline.finish_s", "s", "lower", "sim_minstr_per_s, fig5-precon and fig8-timing"},
		{"precon.engine_s", "s", "lower", "sim_minstr_per_s, fig5-precon"},
		{"precon.work_units_per_ki", "1/KI", "lower", "sim_minstr_per_s, fig5-precon"},
		{"precon.traces_built_per_ki", "1/KI", "lower", "sim_minstr_per_s, fig5-precon"},
		{"precon.useful_frac", "fraction", "higher", "sim_minstr_per_s, fig5-precon"},
		{"frontend.tc_hit_rate", "fraction", "higher", "explains precon and pipeline host work, fig5-precon"},
		{"frontend.precon_supplied_per_ki", "1/KI", "higher", "explains precon and pipeline host work, fig5-precon"},
		{"frontend.tc_miss_per_ki", "1/KI", "lower", "explains precon and pipeline host work, fig5-precon"},
		{"frontend.port_contention", "fraction", "lower", "explains precon and pipeline host work, fig5-precon"},
		{"tpred.accuracy", "fraction", "higher", "explains backend host work, fig8-timing"},
		{"mem.l2_accesses_per_ki", "1/KI", "lower", "explains backend host work, fig8-timing"},
		{"sample.skip_raw_s", "s", "lower", "sim_minstr_per_s, fig5-sampled-200M"},
		{"sample.ff_warm_s", "s", "lower", "sim_minstr_per_s, fig5-sampled-200M"},
		{"sample.warm_s", "s", "lower", "sim_minstr_per_s, fig5-sampled-200M"},
		{"sample.measure_s", "s", "lower", "sim_minstr_per_s, fig5-sampled-200M"},
		{"sample.units", "count", "higher", "ipc_err_pct, fig5-sampled-200M"},
		{"sample.detail_frac", "fraction", "lower", "ipc_err_pct, fig5-sampled-200M"},
		{"harness.groups", "count", "higher", "sim_minstr_per_s, fig8-timing"},
		{"harness.group_s_max", "s", "lower", "sim_minstr_per_s, fig8-timing"},
		{"harness.group_imbalance", "ratio", "lower", "sim_minstr_per_s, fig8-timing"},
		{"harness.unaccounted_s", "s", "lower", "sim_minstr_per_s, all workloads"},
		{"harness.unaccounted_frac", "fraction", "lower", "sim_minstr_per_s, all workloads"},
		{"go.allocs_per_minstr", "count", "lower", "cpu_s and sim_minstr_per_s, fig8-timing"},
		{"go.alloc_mib", "MiB", "lower", "cpu_s and sim_minstr_per_s, fig8-timing"},
		{"go.gc_cycles", "count", "lower", "cpu_s and sim_minstr_per_s, fig8-timing"},
		{"go.gc_cpu_frac", "fraction", "lower", "cpu_s and sim_minstr_per_s, fig8-timing"},
	}
	for _, p := range profilePackages {
		ms = append(ms, layerMetric{"profile.share." + p, "fraction", "lower", "sim_minstr_per_s, the workload where the package does most work"})
	}
	return append(ms,
		layerMetric{"ipc_err_pct", "%", "lower", "sampling accuracy, fig5-sampled-200M"},
		layerMetric{"miss_err_pct", "%", "lower", "sampling accuracy, fig5-sampled-200M"},
		layerMetric{"ci_coverage", "fraction", "higher", "sampling accuracy, fig5-sampled-200M"},
		layerMetric{"peak_rss_mib", "MiB", "lower", "memory: the sweep's whole resident peak, streams included, fig5-sampled-200M"},
		layerMetric{"trace_overhead_pct", "%", "lower", "cost of the traced run itself, all workloads"},
		layerMetric{"failed_cell_frac", "fraction", "lower", "correctness, all workloads"},
	)
}()

// tracedSeeds are the generator seeds a traced run covers: the run
// seed's, plus the default seed 0, whose references the run checks too.
func tracedSeeds(w workloadSpec, seed int64) []int64 {
	seeds := w.runSeeds(seed)
	for _, s := range seeds {
		if s == 0 {
			return seeds
		}
	}
	return append(seeds, 0)
}

// tracedChild is the traced run's process: a timed harness.Run of the
// workload, then the same cells through the traced driver. Every
// traced cell must equal its timed cell, or the per-layer numbers
// would describe a different program.
func tracedChild(w workloadSpec, seed int64) childReport {
	seeds := tracedSeeds(w, seed)
	n := w.cellCount(seeds)
	rep := childReport{Cells: n, Instrs: float64(n) * float64(w.budget), Layers: map[string]float64{}}
	fail := func(format string, a ...any) childReport {
		rep.Failures = append(rep.Failures, fmt.Sprintf(format, a...))
		return rep
	}
	ref, err := loadRef(w)
	if err != nil {
		return fail("reference: %v", err)
	}
	if err := os.MkdirAll(traceDir(), 0o755); err != nil {
		return fail("%v", err)
	}

	// The timed sweep, with the Go runtime's counters read around it.
	var rtStart runtimeSample
	g, st, err := timedSweep(w, seeds, func() { rtStart = readRuntime() })
	if err != nil {
		return fail("timed sweep: %v", err)
	}
	rtEnd := readRuntime()
	rep.SetupS, rep.SweepS, rep.CPUS, rep.SweepMemMiB = st.setup.Seconds(), st.sweep.Seconds(), st.cpuS, st.memMiB
	rep.Layers["peak_rss_mib"] = st.peakMiB
	rep.Fingerprints, rep.Failures = checkGrid(w, ref, g)
	accuracy(w, g, rep.Layers, &rep.Failures)

	// Free the harness's streams before the traced driver records its own.
	harness.ResetStreamCache()
	debug.FreeOSMemory()

	tag := fmt.Sprintf("%s-seed%d", w.name, seed)
	prof := filepath.Join(traceDir(), tag+".cpu.pprof")
	ts, err := runTracedSweep(w, seeds, prof)
	if err != nil {
		return fail("traced sweep: %v", err)
	}
	for i := range ts.cells {
		c := &ts.cells[i]
		key := fmt.Sprintf("%d/%s/%s", c.seed, c.bench, c.point.Name)
		if got, want := fingerprint(c.res, c.ss), rep.Fingerprints[key]; got != want {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: traced driver fingerprint %s, harness.Run %s", key, got, want))
		}
	}
	decodeRate := ts.decodeOnly()

	L := rep.Layers
	instrs := rep.Instrs
	L["go.allocs_per_minstr"] = float64(rtEnd.mallocs-rtStart.mallocs) / (instrs / 1e6)
	L["go.alloc_mib"] = float64(rtEnd.totalAlloc-rtStart.totalAlloc) / (1 << 20)
	L["go.gc_cycles"] = float64(rtEnd.numGC - rtStart.numGC)
	L["go.gc_cpu_frac"] = ratio(rtEnd.gcCPU-rtStart.gcCPU, rtEnd.totalCPU-rtStart.totalCPU)
	timedRate := instrs / st.sweep.Seconds()
	tracedRate := instrs / ts.wall.Seconds()
	L["trace_overhead_pct"] = (timedRate/tracedRate - 1) * 100

	var gen, rec, bytes, recInstrs float64
	for _, u := range ts.units {
		gen += float64(u.genNs) / 1e9
		rec += float64(u.recordNs) / 1e9
		bytes += float64(u.st.Bytes())
		recInstrs += float64(u.st.Len())
	}
	L["workload.generate_s"] = gen
	L["emulator.record_s"] = rec
	L["emulator.record_peak_rss_mib"] = ts.recordPeakMiB
	L["emulator.stream_bytes_per_instr"] = bytes / recInstrs
	L["emulator.decode_only_minstr_per_s"] = decodeRate

	lt := ts.layers
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	L["emulator.decode_wait_s"] = sec(lt.DecodeWaitNs)
	L["emulator.decode_passes"] = float64(lt.DecodePasses)
	L["trace.segment_s"] = sec(lt.SegmentNs)
	L["trace.segment_calls"] = float64(lt.SegCalls)
	L["trace.instrs_per_trace"] = ratio(float64(lt.SegInstrs), float64(lt.SegTraces))
	L["pipeline.run_trace_s"] = sec(lt.RunTraceNs)
	L["pipeline.new_s"] = sec(lt.NewNs)
	L["pipeline.finish_s"] = sec(lt.FinishNs)
	L["sample.skip_raw_s"] = sec(lt.SkipRawNs)
	L["sample.ff_warm_s"] = sec(lt.FFWarmNs)
	L["sample.warm_s"] = sec(lt.WarmNs)
	L["sample.measure_s"] = sec(lt.MeasureNs)

	var maxS, sumS float64
	var unaccounted, groupTotal int64
	for _, gt := range ts.groups {
		wall := gt.Span.End - gt.Span.Start
		maxS, sumS = max(maxS, sec(wall)), sumS+sec(wall)
		groupTotal += wall
		unaccounted += gt.UnaccountedNs
		fmt.Fprintf(os.Stderr, "perfbench: group %-7s seed %-3d %2d cells %2d selects: wall %7.3fs, unaccounted %7.3fs (%.1f%%)\n",
			gt.Bench, gt.Seed, gt.Cells, gt.Selects, sec(wall), sec(gt.UnaccountedNs), 100*ratio(float64(gt.UnaccountedNs), float64(wall)))
	}
	L["harness.groups"] = float64(len(ts.groups))
	L["harness.group_s_max"] = maxS
	L["harness.group_imbalance"] = maxS / (sumS / float64(len(ts.groups)))
	L["harness.unaccounted_s"] = sec(unaccounted)
	L["harness.unaccounted_frac"] = ratio(float64(unaccounted), float64(groupTotal))

	modelLayers(ts, L)

	shares, err := profileShares(prof)
	if err != nil {
		return fail("cpu profile: %v", err)
	}
	for p, v := range shares {
		L["profile.share."+p] = v
	}
	L["failed_cell_frac"] = float64(min(n, len(rep.Failures))) / float64(n)

	out := struct {
		Workload    string       `json:"workload"`
		Seeds       []int64      `json:"seeds"`
		SweepWallNs int64        `json:"sweep_wall_ns"`
		Groups      []groupTrace `json:"groups"`
	}{w.name, seeds, int64(ts.wall), ts.groups}
	b, err := json.Marshal(out)
	if err == nil {
		err = os.WriteFile(filepath.Join(traceDir(), tag+".spans.json"), b, 0o644)
	}
	if err != nil {
		return fail("writing spans: %v", err)
	}
	return rep
}

// modelLayers derives the simulated per-layer counts from the traced
// cells. A sampled cell contributes its measured units; precon and
// buffer counts come from cells that run the engine.
func modelLayers(ts *tracedSweep, L map[string]float64) {
	var (
		instrs, preconInstrs                  float64
		tcHits, tcProbes, pbHits, slowBuilds  float64
		internHits, interns                   float64
		engineNs, workUnits, built, dup       float64
		stalls, fetches, correct, preds, l2   float64
		units, detail, streamed, sampledCells float64
	)
	for i := range ts.cells {
		c := &ts.cells[i]
		r := c.res
		in := float64(r.Instructions)
		instrs += in
		fe := r.Frontend
		if len(fe.Suppliers) > 0 {
			tcHits += float64(fe.Suppliers[0].Hits)
			tcProbes += float64(fe.Suppliers[0].Probes)
		}
		slowBuilds += float64(fe.Slow.Builds)
		internHits += float64(r.Intern.Hits)
		interns += float64(r.Intern.Interns)
		correct += float64(r.Pred.Correct)
		preds += float64(r.Pred.Predictions)
		l2 += float64(r.Memory.Accesses)
		engineNs += float64(c.engineNs)
		if c.point.Cfg.Buffers.Entries > 0 {
			preconInstrs += in
			for _, s := range fe.Suppliers[1:] {
				pbHits += float64(s.Hits)
			}
			workUnits += float64(r.Precon.WorkUnits)
			built += float64(r.Precon.TracesBuilt)
			dup += float64(r.Precon.TracesDuplicate)
			stalls += float64(fe.Port.PreconStalls)
			fetches += float64(fe.Port.PreconFetches)
		}
		if c.ss != nil {
			sampledCells++
			units += float64(len(c.ss.Intervals))
			detail += float64(c.ss.WarmInstrs + c.ss.MeasuredInstrs)
			streamed += float64(c.ss.Streamed)
		}
	}
	perKI := func(x, in float64) float64 { return ratio(x*1000, in) }
	L["trace.store_intern_hit_rate"] = ratio(internHits, interns)
	L["precon.engine_s"] = engineNs / 1e9
	L["precon.work_units_per_ki"] = perKI(workUnits, preconInstrs)
	L["precon.traces_built_per_ki"] = perKI(built, preconInstrs)
	L["precon.useful_frac"] = ratio(pbHits, built-dup)
	L["frontend.tc_hit_rate"] = ratio(tcHits, tcProbes)
	L["frontend.precon_supplied_per_ki"] = perKI(pbHits, preconInstrs)
	L["frontend.tc_miss_per_ki"] = perKI(slowBuilds, instrs)
	L["frontend.port_contention"] = ratio(stalls, stalls+fetches)
	L["tpred.accuracy"] = ratio(correct, preds)
	L["mem.l2_accesses_per_ki"] = perKI(l2, instrs)
	L["sample.units"] = ratio(units, sampledCells)
	L["sample.detail_frac"] = ratio(detail, streamed)
}

// accuracy reports the sampled workload's error against its stored
// full-detail reference, on the default seed's cells: the median
// relative error of IPC and of trace cache misses per 1000
// instructions, and the share of cells whose full-detail IPC lies in
// the sampled 95% confidence interval. A full-detail workload is its
// own reference (its cells must match their stored fingerprints), so
// it reports zero error and full coverage.
func accuracy(w workloadSpec, g *harness.Grid, L map[string]float64, failures *[]string) {
	L["ipc_err_pct"], L["miss_err_pct"], L["ci_coverage"] = 0, 0, 1
	if !w.sampled {
		return
	}
	ref, err := loadFullRef(w)
	if err != nil {
		*failures = append(*failures, "full-detail reference: "+err.Error())
		return
	}
	var ipcErr, missErr []float64
	covered := 0
	for i := range g.Cells {
		c := &g.Cells[i]
		if c.Seed != ref.Seed {
			continue
		}
		want, ok := ref.Cells[cellName(c)]
		if !ok {
			*failures = append(*failures, fmt.Sprintf("%d/%s: no full-detail reference", c.Seed, cellName(c)))
			continue
		}
		ipcErr = append(ipcErr, relErrPct(c.Result.IPC(), want.IPC))
		missErr = append(missErr, relErrPct(harness.TCMissPerKI.Of(c.Result), want.MissPerKI))
		if c.Sample.IPCCI().Contains(want.IPC) {
			covered++
		}
	}
	L["ipc_err_pct"] = median(ipcErr)
	L["miss_err_pct"] = median(missErr)
	L["ci_coverage"] = float64(covered) / float64(len(ipcErr))
}

func relErrPct(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got) * 100
	}
	return math.Abs(got-want) / math.Abs(want) * 100
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
