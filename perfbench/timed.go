package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tracepre/internal/harness"
)

// sweepStats is what one timed sweep measures.
type sweepStats struct {
	setup, sweep time.Duration
	cpuS         float64 // user + system CPU of the process during the sweep
	peakMiB      float64 // resident high-water mark of the sweep
	// memMiB is the resident memory the sweep adds: peakMiB less what
	// was resident when it started (images, recorded streams, runtime).
	// Stream sizes vary by generated program, the sweep's own memory
	// much less.
	memMiB float64
}

// timedSweep runs the workload once through harness.Run, splitting its
// wall time at the Done == 0 progress callback: before it, the harness
// generated images and recorded streams (setup); after it, the sweep.
// In that callback the collector returns setup's garbage to the system
// and the resident high-water mark restarts, so the sweep's peak does
// not depend on when the collector last ran during recording; neither
// step is timed. atSetup, when not nil, runs there too.
func timedSweep(w workloadSpec, seeds []int64, atSetup func()) (*harness.Grid, sweepStats, error) {
	var (
		st         sweepStats
		start      = time.Now()
		sweepStart time.Time
		cpu0       float64
		startMiB   float64
		resetErr   error
	)
	progress := func(p harness.Progress) {
		if p.Done != 0 {
			return
		}
		st.setup = time.Since(start)
		debug.FreeOSMemory()
		if resetErr = resetPeakRSS(); resetErr == nil {
			startMiB, resetErr = peakRSSMiB()
		}
		if atSetup != nil {
			atSetup()
		}
		cpu0 = processCPU()
		sweepStart = time.Now()
	}
	g, err := harness.Run(context.Background(), w.matrix(seeds), w.options(workers(), progress)...)
	st.sweep = time.Since(sweepStart)
	st.cpuS = processCPU() - cpu0
	if err != nil {
		return nil, st, err
	}
	if resetErr != nil {
		return nil, st, resetErr
	}
	st.peakMiB, err = peakRSSMiB()
	st.memMiB = st.peakMiB - startMiB
	return g, st, err
}

// processCPU returns the process's user + system CPU seconds so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime)
}

// resetPeakRSS restarts the kernel's resident high-water mark (VmHWM)
// at the current resident size.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the resident high-water mark: %w", err)
	}
	return nil
}

// peakRSSMiB reads the resident high-water mark (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// timedChild is one measured process of a timed run.
func timedChild(w workloadSpec, seed int64) childReport {
	seeds := w.runSeeds(seed)
	rep := childReport{Cells: w.cellCount(seeds), Instrs: float64(w.cellCount(seeds)) * float64(w.budget)}
	ref, err := loadRef(w)
	if err != nil {
		rep.Failures = append(rep.Failures, "reference: "+err.Error())
		return rep
	}
	g, st, err := timedSweep(w, seeds, nil)
	if err != nil {
		rep.Failures = append(rep.Failures, "sweep: "+err.Error())
		return rep
	}
	rep.SetupS, rep.SweepS, rep.CPUS, rep.SweepMemMiB = st.setup.Seconds(), st.sweep.Seconds(), st.cpuS, st.memMiB
	rep.Fingerprints, rep.Failures = checkGrid(w, ref, g)
	return rep
}

// makeReference stores the fingerprints of every cell of the workload
// on each seed, sweeping the seeds one at a time.
func makeReference(name, seedList string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	seeds, err := parseSeeds(seedList)
	if err != nil {
		return err
	}
	ref := refFile{Workload: w.name, Budget: w.budget, Seeds: map[string]map[string]string{}}
	for _, s := range seeds {
		harness.ResetStreamCache()
		g, _, err := timedSweep(w, []int64{s}, nil)
		if err != nil {
			return err
		}
		cells := map[string]string{}
		for i := range g.Cells {
			c := &g.Cells[i]
			if err := invariants(w, c.Result, c.Sample); err != nil {
				return fmt.Errorf("seed %d: %s: %w", s, cellName(c), err)
			}
			cells[cellName(c)] = fingerprint(c.Result, c.Sample)
		}
		ref.Seeds[strconv.FormatInt(s, 10)] = cells
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d cells\n", w.name, s, len(cells))
	}
	return writeJSON(filepath.Join(refDir(), filepath.Base(refPath(w))), ref)
}

// makeFullReference runs a sampled workload's cells in full detail on
// the default seed and stores each cell's IPC and miss rate.
func makeFullReference(name string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if !w.sampled {
		return fmt.Errorf("%s is not a sampled workload", w.name)
	}
	full := w
	full.sampled = false
	g, st, err := timedSweep(full, []int64{0}, nil)
	if err != nil {
		return err
	}
	ref := fullRef{Workload: w.name, Budget: w.budget, Seed: 0, Cells: map[string]fullRefValues{}}
	for i := range g.Cells {
		c := &g.Cells[i]
		if err := invariants(full, c.Result, nil); err != nil {
			return fmt.Errorf("%s: %w", cellName(c), err)
		}
		ref.Cells[cellName(c)] = fullRefValues{IPC: c.Result.IPC(), MissPerKI: harness.TCMissPerKI.Of(c.Result)}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s full detail: %d cells in %.0fs\n", w.name, len(g.Cells), st.sweep.Seconds())
	return writeJSON(filepath.Join(refDir(), filepath.Base(fullRefPath(w))), ref)
}
