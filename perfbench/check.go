package main

import (
	"embed"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"tracepre/internal/harness"
	"tracepre/internal/pipeline"
	"tracepre/internal/sample"
)

// refs holds the stored references the output check compares against.
// Regenerate them with -make-ref (see the package documentation).
//
//go:embed refs
var refs embed.FS

// refFile is one workload's stored cell fingerprints, per generator
// seed, at the workload's budget.
type refFile struct {
	Workload string                       `json:"workload"`
	Budget   uint64                       `json:"budget"`
	Seeds    map[string]map[string]string `json:"seeds"` // seed -> bench/point -> fingerprint
}

// fullRef is the full-detail reference a sampled workload's accuracy is
// measured against: each cell's IPC and trace cache misses per 1000
// instructions, simulated without sampling on the default seed.
type fullRef struct {
	Workload string                   `json:"workload"`
	Budget   uint64                   `json:"budget"`
	Seed     int64                    `json:"seed"`
	Cells    map[string]fullRefValues `json:"cells"` // bench/point
}

type fullRefValues struct {
	IPC       float64 `json:"ipc"`
	MissPerKI float64 `json:"tc_miss_per_ki"`
}

func refPath(w workloadSpec) string     { return filepath.Join("refs", w.name+".json") }
func fullRefPath(w workloadSpec) string { return filepath.Join("refs", w.name+".full-detail.json") }

// loadRef returns the workload's stored fingerprints, or an empty file
// when none is stored.
func loadRef(w workloadSpec) (refFile, error) {
	var r refFile
	b, err := refs.ReadFile(refPath(w))
	if errors.Is(err, fs.ErrNotExist) {
		return refFile{Workload: w.name, Budget: w.budget}, nil
	}
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", refPath(w), err)
	}
	if r.Budget != w.budget {
		return r, fmt.Errorf("%s: stored for budget %d, workload runs %d (regenerate with -make-ref)", refPath(w), r.Budget, w.budget)
	}
	return r, nil
}

// covers reports whether every seed has stored fingerprints.
func (r refFile) covers(seeds []int64) bool {
	for _, s := range seeds {
		if _, ok := r.Seeds[strconv.FormatInt(s, 10)]; !ok {
			return false
		}
	}
	return true
}

// loadFullRef returns the sampled workload's full-detail reference.
func loadFullRef(w workloadSpec) (fullRef, error) {
	var r fullRef
	b, err := refs.ReadFile(fullRefPath(w))
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", fullRefPath(w), err)
	}
	if r.Budget != w.budget {
		return r, fmt.Errorf("%s: stored for budget %d, workload runs %d", fullRefPath(w), r.Budget, w.budget)
	}
	return r, nil
}

// cellName keys a cell within one seed.
func cellName(c *harness.Cell) string { return c.Bench + "/" + c.Point.Name }

// fingerprint hashes a cell's simulated counters: the Result of a
// full-detail cell, and for a sampled cell also its schedule and every
// measurement unit. Only counters are hashed — never host timings such
// as the engine's MeasureOverhead nanoseconds — and only fields that
// are part of the model's accounting rather than derived copies, so a
// speed-only change leaves every fingerprint unchanged.
func fingerprint(res pipeline.Result, ss *sample.Stats) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(ws ...uint64) {
		for _, w := range ws {
			binary.LittleEndian.PutUint64(buf[:], w)
			h.Write(buf[:])
		}
	}
	putResult := func(r pipeline.Result) {
		put(r.Instructions, r.Traces, r.Cycles, r.Loads, r.DCacheMisses, r.ARBForwards,
			math.Float64bits(r.AdaptivePBShare), r.AdaptiveAdjusts)
		fe := r.Frontend
		put(uint64(len(fe.Suppliers)))
		for _, s := range fe.Suppliers {
			h.Write([]byte(s.Name))
			put(s.Probes, s.Hits, s.Fills)
		}
		sl := fe.Slow
		put(sl.Builds, sl.Instrs, sl.ICAccesses, sl.ICMisses, sl.InstrsFromICMisses, sl.BranchMisp)
		pt := fe.Port
		put(pt.DemandAccesses, pt.DemandMisses, pt.DemandBusyCycles, pt.IdleCycles,
			pt.PreconFetches, pt.PreconMisses, pt.PreconStalls, pt.PreconMemDenied)
		pr := r.Pred
		put(pr.Predictions, pr.Correct, pr.FromPrimary, pr.NoPredict)
		pc := r.Precon
		put(pc.StackPushes, pc.StackDedups, pc.StackOverflows, pc.StackCaughtUp, pc.SpecPushes,
			pc.SpecFlushed, pc.RegionsActivated, pc.RegionsCompleted, pc.RegionsCaughtUp,
			pc.RegionsExhausted, pc.RegionsBounded, pc.CompletedSkips, pc.TracesBuilt,
			pc.TracesDuplicate, pc.LinesFetched, pc.ICacheMisses, pc.PreWalkAborts, pc.WorkUnits)
		m := r.Memory
		put(m.Accesses, m.Misses, m.Evictions, m.IAccesses, m.IMisses, m.DAccesses, m.DMisses,
			m.PreconAccesses, m.PreconMisses, m.MSHRMerges, m.MSHRStallCycles, m.FillStallCycles,
			m.PreconDenied)
	}
	putResult(res)
	if ss != nil {
		put(ss.Budget, ss.Streamed, ss.FFInstrs, ss.WarmInstrs, ss.MeasuredInstrs, uint64(len(ss.Intervals)))
		for _, iv := range ss.Intervals {
			put(uint64(iv.Index), iv.Start, iv.Instrs)
			putResult(iv.Res)
		}
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// invariants checks the accounting every cell must satisfy whatever
// its seed: the budget was consumed (less at most one partial trace
// dropped at the end of the stream), every demanded trace was supplied
// exactly once, and a sampled cell measured at least two units.
func invariants(w workloadSpec, res pipeline.Result, ss *sample.Stats) error {
	supplied := res.Frontend.Slow.Builds
	for _, s := range res.Frontend.Suppliers {
		supplied += s.Hits
	}
	if supplied != res.Traces {
		return fmt.Errorf("supply not conserved: %d traces, %d supplied", res.Traces, supplied)
	}
	if res.Instructions == 0 || res.Cycles == 0 {
		return fmt.Errorf("empty result: %d instructions, %d cycles", res.Instructions, res.Cycles)
	}
	if ss == nil {
		if res.Instructions > w.budget || w.budget-res.Instructions > 16 {
			return fmt.Errorf("committed %d instructions of a %d budget", res.Instructions, w.budget)
		}
		return nil
	}
	if ss.Streamed > w.budget || w.budget-ss.Streamed > 16 {
		return fmt.Errorf("sampled run streamed %d of a %d budget", ss.Streamed, w.budget)
	}
	if len(ss.Intervals) < 2 {
		return fmt.Errorf("sampled run measured %d units", len(ss.Intervals))
	}
	if ss.FFInstrs+ss.WarmInstrs+ss.MeasuredInstrs > ss.Streamed {
		return fmt.Errorf("sampled phases cover %d instructions of %d streamed",
			ss.FFInstrs+ss.WarmInstrs+ss.MeasuredInstrs, ss.Streamed)
	}
	return nil
}

// checkGrid runs the output check over a sweep: invariants on every
// cell and, where a reference is stored for the cell's seed, equality
// with it. It returns each cell's fingerprint (keyed seed/bench/point)
// and one error per failed cell.
func checkGrid(w workloadSpec, ref refFile, g *harness.Grid) (map[string]string, []string) {
	fps := map[string]string{}
	var failures []string
	for i := range g.Cells {
		c := &g.Cells[i]
		key := fmt.Sprintf("%d/%s", c.Seed, cellName(c))
		fp := fingerprint(c.Result, c.Sample)
		fps[key] = fp
		if err := invariants(w, c.Result, c.Sample); err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", key, err))
			continue
		}
		if want, ok := ref.Seeds[strconv.FormatInt(c.Seed, 10)][cellName(c)]; ok && want != fp {
			failures = append(failures, fmt.Sprintf("%s: fingerprint %s, reference %s", key, fp, want))
		}
	}
	return fps, failures
}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
