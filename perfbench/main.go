// Command perfbench is the repository benchmark. It runs one named
// sweep workload for a given time and prints, as the last line of its
// standard output, one JSON object:
//
//	{"correct": true, "attempted": 90, "failed": 0, "metrics": {...}}
//
// Run it from the root of the repository:
//
//	python3 perfbench/run.py --workload fig5-precon --seed 1 --seconds 20 --trace 0
//
// run.py builds this package into .bench_build/ and execs it.
//
// --seed n selects a workload's generator seeds (harness.Matrix.Seeds):
// n*K to n*K+K-1, where K is the workload's seedsPerRun.
//
// With --trace 0 the benchmark measures end-to-end: it starts one fresh
// process per sweep, each running the workload once through the public
// harness.Run API with two workers (setup = image generation plus
// stream recording, then the sweep), until --seconds have passed, and
// reports the median over processes of simulated Minstr/s, setup
// seconds, the sweep's process CPU seconds, and the resident memory the
// sweep adds to the recorded streams it starts with. attempted and
// failed count the cells run and the cells that errored or failed the
// output check.
//
// With --trace 1 one fresh process runs the workload twice, on the
// run's generator seeds plus the default seed 0: first timed through
// harness.Run, then through the benchmark's own traced driver, which
// calls each layer's public entry points (workload.Generate,
// emulator.Record, DecodeChunks/Next, ChunkSegmenter.Feed,
// pipeline.New/StartChunked/RunTrace/Finish, sample.NewRunner/Feed/
// SkipRaw/Finish) and times them. It reports per-layer metrics,
// requires every traced cell to equal the timed one, and writes its
// spans to .bench_build/trace/.
//
// The output check: every cell must satisfy the accounting invariants,
// cells of one seed must agree across the run's processes, and where
// refs/<workload>.json stores the seed's fingerprints every cell must
// match them; a full-detail run whose seeds have none also sweeps run
// seed 0 and checks that. Regenerate the references (per generator
// seed) after a change that is meant to alter simulated results:
//
//	python3 perfbench/run.py --make-ref fig5-precon --ref-seeds 0-127
//	python3 perfbench/run.py --make-full-ref fig5-sampled-200M
//
// The second builds the full-detail 200M-instruction reference that
// the sampled workload's accuracy metrics are measured against (a few
// minutes on two cores).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// childReport is what one measured process reports to the parent.
type childReport struct {
	SetupS       float64            `json:"setup_s"`
	SweepS       float64            `json:"sweep_s"`
	CPUS         float64            `json:"cpu_s"`
	SweepMemMiB  float64            `json:"sweep_mem_mib"`
	Cells        int                `json:"cells"`
	Instrs       float64            `json:"instrs"`
	Fingerprints map[string]string  `json:"fingerprints"`
	Failures     []string           `json:"failures"`
	Layers       map[string]float64 `json:"layers,omitempty"`
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd are the metrics a timed run reports, each the median over
// its processes: simulated instructions per second of sweep wall time
// after setup, setup seconds, the sweep's process CPU seconds, and the
// resident memory the sweep adds to its recorded streams (see
// sweepStats.memMiB; the whole peak is the per-layer peak_rss_mib).
var endToEnd = []struct{ name, unit string }{
	{"sim_minstr_per_s", "Minstr/s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"sweep_mem_mib", "MiB"},
}

// Timed runs start fresh processes until the time is spent, but always
// at least minProcs and at most maxProcs.
const (
	minProcs = 3
	maxProcs = 40
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run")
		seed     = flag.Int64("seed", 0, "generator seed of the workload's benchmarks")
		seconds  = flag.Float64("seconds", 10, "how long to measure")
		traced   = flag.Int("trace", 0, "1 runs the traced per-layer measurement")
		child    = flag.String("child", "", "run one measured process (timed|traced); used by the benchmark itself")
		makeRef  = flag.String("make-ref", "", "store cell fingerprints for this workload under refs/")
		refSeeds = flag.String("ref-seeds", "0", "seeds for -make-ref: a list such as 0,3 or a range such as 0-31")
		fullRef  = flag.String("make-full-ref", "", "store the full-detail reference of this sampled workload under refs/")
	)
	flag.Parse()
	log := func(format string, a ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", a...) }

	switch {
	case *makeRef != "":
		if err := makeReference(*makeRef, *refSeeds); err != nil {
			log("%v", err)
			os.Exit(1)
		}
		return
	case *fullRef != "":
		if err := makeFullReference(*fullRef); err != nil {
			log("%v", err)
			os.Exit(1)
		}
		return
	}

	w, err := workloadByName(*name)
	if err != nil {
		log("%v", err)
		os.Exit(2)
	}
	switch *child {
	case "timed":
		emit(timedChild(w, *seed))
		return
	case "traced":
		emit(tracedChild(w, *seed))
		return
	case "":
	default:
		log("unknown -child mode %q", *child)
		os.Exit(2)
	}

	var res result
	if *traced != 0 {
		res, err = runTraced(w, *seed)
	} else {
		res, err = runTimed(w, *seed, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		log("%v", err)
		os.Exit(1)
	}
	moves := map[string]string{}
	for _, m := range perLayer {
		moves[m.name] = m.moves
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("%-36s %14.6g %-9s %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit, moves[k])
	}
	if *traced == 0 {
		fmt.Printf("%-36s %14.6g %-9s (%d of %d cells)\n", "failed_cell_frac",
			float64(res.Failed)/float64(res.Attempted), "fraction", res.Failed, res.Attempted)
	}
	b, err := json.Marshal(res)
	if err != nil {
		log("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// emit prints a child's report as its last output line.
func emit(r childReport) {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// workers is the sweep fan-out: one per CPU, at most two.
func workers() int { return min(2, runtime.NumCPU()) }

// spawn runs this binary as a measured child process, waits for it,
// and returns its report.
func spawn(mode string, w workloadSpec, seed int64) (childReport, error) {
	var r childReport
	self, err := os.Executable()
	if err != nil {
		return r, err
	}
	cmd := exec.Command(self, "-child", mode, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return r, fmt.Errorf("%s process: %w", mode, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("%s process: reading its report: %w", mode, err)
	}
	return r, nil
}

// runTimed measures the workload end to end over fresh processes.
func runTimed(w workloadSpec, seed int64, dur time.Duration) (result, error) {
	start := time.Now()
	var procs []childReport
	for len(procs) < minProcs || (time.Since(start) < dur && len(procs) < maxProcs) {
		p, err := spawn("timed", w, seed)
		if err != nil {
			return result{}, err
		}
		procs = append(procs, p)
	}

	res := result{Metrics: map[string]metric{}}
	var rate, setup, cpu, mem []float64
	var first map[string]string
	for i, r := range procs {
		if first == nil && len(r.Fingerprints) > 0 {
			first = r.Fingerprints
		}
		if r.SweepS > 0 { // a failed sweep has no timing
			rate = append(rate, r.Instrs/r.SweepS/1e6)
			setup = append(setup, r.SetupS)
			cpu = append(cpu, r.CPUS)
			mem = append(mem, r.SweepMemMiB)
			fmt.Fprintf(os.Stderr, "perfbench:   process %d: %.2f Minstr/s, setup %.3fs, cpu %.2fs, sweep memory %.1f MiB\n",
				i, rate[len(rate)-1], r.SetupS, r.CPUS, r.SweepMemMiB)
		}
		res.Attempted += r.Cells
		failed := map[string]bool{}
		for _, f := range r.Failures {
			fmt.Fprintf(os.Stderr, "perfbench: process %d: %s\n", i, f)
			failed[strings.SplitN(f, ":", 2)[0]] = true
		}
		// Every process simulates the same inputs, so every cell must
		// come out the same in each.
		for k, fp := range r.Fingerprints {
			if first[k] != fp && !failed[k] {
				fmt.Fprintf(os.Stderr, "perfbench: process %d: %s: fingerprint %s, process 0 had %s\n", i, k, fp, first[k])
				failed[k] = true
			}
		}
		if len(r.Fingerprints) != r.Cells {
			fmt.Fprintf(os.Stderr, "perfbench: process %d: %d fingerprints for %d cells\n", i, len(r.Fingerprints), r.Cells)
		}
		res.Failed += min(r.Cells, len(failed)+r.Cells-len(r.Fingerprints))
	}
	if err := canary(w, seed, &res); err != nil {
		return result{}, err
	}
	res.Correct = res.Failed == 0
	if len(rate) == 0 {
		return result{}, fmt.Errorf("no process completed a sweep")
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d processes in %.1fs; Minstr/s quartile spread %.3f\n",
		w.name, seed, len(procs), time.Since(start).Seconds(), quartileSpread(rate))
	for i, v := range [][]float64{rate, setup, cpu, mem} {
		res.Metrics[endToEnd[i].name] = metric{median(v), endToEnd[i].unit}
	}
	return res, nil
}

// canary completes the output check of a full-detail run whose seeds
// have no stored reference: after the measured processes, this process
// sweeps run seed 0, whose fingerprints are stored, and counts its
// cells into res. A sampled workload's run seed 0 costs as much as a
// measured process, so it relies on its own references and the traced
// run instead.
func canary(w workloadSpec, seed int64, res *result) error {
	ref, err := loadRef(w)
	if err != nil {
		return err
	}
	if w.sampled || ref.covers(w.runSeeds(seed)) {
		return nil
	}
	g, _, err := timedSweep(w, w.runSeeds(0), nil)
	if err != nil {
		return fmt.Errorf("reference sweep: %w", err)
	}
	_, failures := checkGrid(w, ref, g)
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "perfbench: reference sweep: %s\n", f)
	}
	res.Attempted += len(g.Cells)
	res.Failed += len(failures)
	return nil
}

// runTraced runs the traced per-layer measurement in one fresh process.
func runTraced(w workloadSpec, seed int64) (result, error) {
	r, err := spawn("traced", w, seed)
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: r.Cells, Failed: min(r.Cells, len(r.Failures)), Metrics: map[string]metric{}}
	for _, f := range r.Failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", f)
	}
	res.Correct = res.Failed == 0
	for _, m := range perLayer {
		v, ok := r.Layers[m.name]
		if !ok {
			return result{}, fmt.Errorf("traced process did not report %s", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	return res, nil
}

// outDir is where the benchmark writes what it leaves behind.
func outDir() string {
	if d := os.Getenv("PERFBENCH_OUT"); d != "" {
		return d
	}
	return ".bench_build"
}

// parseSeeds reads "0,3,5" or "0-31".
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed list %q: %w", s, err)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseInt(hi, 10, 64); err != nil {
				return nil, fmt.Errorf("seed list %q: %w", s, err)
			}
		}
		for x := a; x <= b; x++ {
			out = append(out, x)
		}
	}
	return out, nil
}

// refDir is where -make-ref writes: perfbench/refs under the repository
// root the command runs from.
func refDir() string { return filepath.Join("perfbench", "refs") }
