package pipeline

import (
	"errors"
	"fmt"

	"tracepre/internal/cache"
	"tracepre/internal/emulator"
	"tracepre/internal/frontend"
	"tracepre/internal/isa"
	"tracepre/internal/mem"
	"tracepre/internal/precon"
	"tracepre/internal/program"
	"tracepre/internal/tpred"
	"tracepre/internal/trace"
)

// Result aggregates everything a run measured. The accessor methods
// compute the units the paper reports.
type Result struct {
	Instructions uint64
	Traces       uint64
	Cycles       uint64

	// TotalICMisses counts every i-cache miss, including the
	// preconstruction engine's; the demand-side supply counters live in
	// Frontend and are read through the accessor methods below.
	TotalICMisses uint64

	// Backend (full timing only).
	Loads        uint64
	DCacheMisses uint64
	ARBForwards  uint64 // loads ordered behind an in-flight same-word store

	// Adaptive partition (when Config.AdaptivePartition): the final
	// buffer-share target and how often the feedback loop moved it.
	AdaptivePBShare float64
	AdaptiveAdjusts uint64

	Pred   tpred.Stats
	Precon precon.Stats

	// Frontend reports the composed fetch side's own accounting:
	// per-supplier probe/hit/fill counts, slow-path work, and the
	// demand/engine sharing of the i-cache port (frontend.Stats).
	Frontend frontend.Stats

	// Memory reports the level behind the L1s: per-port (I-side, D-side,
	// precon) access and miss counts, MSHR merges and stalls, fill-
	// bandwidth stalls, and the engine fetches the hierarchy refused.
	// With the default FixedLevel wiring only the access counters move.
	Memory mem.LevelStats

	// Intern reports trace-store activity: intern hit rate, live and
	// limbo residency, slab footprint (see trace.StoreStats).
	Intern trace.StoreStats
}

// TCHits returns the demanded traces found in the trace cache
// (supplier 0).
func (r Result) TCHits() uint64 {
	if len(r.Frontend.Suppliers) == 0 {
		return 0
	}
	return r.Frontend.Suppliers[0].Hits
}

// PreconSupplied returns the demanded traces found in the
// preconstruction buffers: the hits of every supplier behind the trace
// cache.
func (r Result) PreconSupplied() uint64 {
	var n uint64
	for i := 1; i < len(r.Frontend.Suppliers); i++ {
		n += r.Frontend.Suppliers[i].Hits
	}
	return n
}

// TCMisses returns the demanded traces built by the slow path.
func (r Result) TCMisses() uint64 { return r.Frontend.Slow.Builds }

// SlowPathInstrs returns the instructions supplied by the i-cache.
func (r Result) SlowPathInstrs() uint64 { return r.Frontend.Slow.Instrs }

// SlowICAccesses returns the slow path's i-cache line accesses.
func (r Result) SlowICAccesses() uint64 { return r.Frontend.Slow.ICAccesses }

// SlowICMisses returns the slow path's i-cache misses.
func (r Result) SlowICMisses() uint64 { return r.Frontend.Slow.ICMisses }

// InstrsFromICMisses returns the instructions supplied under an
// i-cache miss.
func (r Result) InstrsFromICMisses() uint64 { return r.Frontend.Slow.InstrsFromICMisses }

// SlowBranchMisp returns the slow path's bimodal, RAS and target
// mispredictions.
func (r Result) SlowBranchMisp() uint64 { return r.Frontend.Slow.BranchMisp }

// TCMissPerKI returns trace cache misses per 1000 instructions, the
// paper's Figure 5 metric. A demanded trace supplied by the
// preconstruction buffers is a hit.
func (r Result) TCMissPerKI() float64 { return r.perKI(r.TCMisses()) }

// ICacheInstrsPerKI returns instructions supplied by the i-cache per
// 1000 instructions (Table 1).
func (r Result) ICacheInstrsPerKI() float64 { return r.perKI(r.SlowPathInstrs()) }

// ICacheMissesPerKI returns total i-cache misses per 1000 instructions,
// including misses induced by the preconstruction engine (Table 2).
func (r Result) ICacheMissesPerKI() float64 { return r.perKI(r.TotalICMisses) }

// InstrsFromICMissesPerKI returns instructions supplied by i-cache
// misses per 1000 instructions (Table 3).
func (r Result) InstrsFromICMissesPerKI() float64 { return r.perKI(r.InstrsFromICMisses()) }

// perKI scales a count to events per 1000 committed instructions.
func (r Result) perKI(n uint64) float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(n) * 1000 / float64(r.Instructions)
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Check verifies the accounting invariants of a run of cfg. It is
// pure and off the hot path; tests call it on finished results.
//
//   - Supply is conserved: every demanded trace was supplied once
//     (TCHits + PreconSupplied + TCMisses == Traces). The probe chain
//     agrees: the first supplier saw every demand, each later one the
//     demands its predecessor missed, and the slow path built the
//     demands the last supplier missed.
//   - The slow path's i-cache misses are among all i-cache misses.
//   - With the full-timing backend, no run beats its issue width:
//     NumPEs x IssuePerPE instructions a cycle, twice that with
//     preprocessing (a combined-ALU pair shares one issue slot).
func (r Result) Check(cfg Config) error {
	var errs []error
	if got := r.TCHits() + r.PreconSupplied() + r.TCMisses(); got != r.Traces {
		errs = append(errs, fmt.Errorf("supply: %d TC hits + %d precon supplied + %d TC misses = %d, want %d traces",
			r.TCHits(), r.PreconSupplied(), r.TCMisses(), got, r.Traces))
	}
	reached := r.Traces
	for _, s := range r.Frontend.Suppliers {
		if s.Probes != reached || s.Hits > s.Probes {
			errs = append(errs, fmt.Errorf("supplier %s: %d probes, %d hits; %d demands reached it", s.Name, s.Probes, s.Hits, reached))
			break
		}
		reached = s.Probes - s.Hits
	}
	if reached != r.Frontend.Slow.Builds {
		errs = append(errs, fmt.Errorf("slow path: built %d traces, %d demands missed every supplier", r.Frontend.Slow.Builds, reached))
	}
	if r.SlowICMisses() > r.TotalICMisses {
		errs = append(errs, fmt.Errorf("i-cache: %d slow-path misses exceed %d total", r.SlowICMisses(), r.TotalICMisses))
	}
	if cfg.FullTiming {
		width := uint64(cfg.Backend.NumPEs * cfg.Backend.IssuePerPE)
		if cfg.PreprocEnabled {
			width *= 2
		}
		if floor := (r.Instructions + width - 1) / width; r.Cycles < floor {
			errs = append(errs, fmt.Errorf("backend: %d instructions in %d cycles beats the %d-wide issue bound of %d cycles",
				r.Instructions, r.Cycles, width, floor))
		}
	}
	return errors.Join(errs...)
}

// Phase selects how the simulator processes demanded traces during a
// sampled run (internal/sample). The zero value is PhaseMeasure — full
// detail with statistics — so non-sampled runs behave identically with
// no configuration.
type Phase uint8

const (
	// PhaseMeasure runs full detail and accumulates statistics. This is
	// the only phase a non-sampled run ever sees.
	PhaseMeasure Phase = iota
	// PhaseFastForward runs functional-plus-trainable-state only: the
	// frontend's fast supply keeps suppliers, cache tags and predictors
	// current, but no timing advances and no statistics move.
	PhaseFastForward
	// PhaseWarm runs full detail to re-establish timing-dependent state
	// (port clocks, engine progress, backend occupancy) before a
	// measurement unit. The pipeline treats it exactly like
	// PhaseMeasure; the sampling layer freezes statistics around it by
	// differencing Snapshot results at measurement boundaries, so warm
	// activity never needs per-counter guards on the hot path.
	PhaseWarm
)

// Simulator is one configured trace processor bound to a program image.
// The fetch side — trace suppliers, slow-path port, predictors, and the
// preconstruction engine — lives in frontend.Frontend; the simulator
// contributes wiring and timing: fetch/retire bookkeeping and the
// optional full-timing backend.
type Simulator struct {
	cfg Config
	im  *program.Image

	fe  *frontend.Frontend
	dc  *cache.Cache
	be  *backend
	mem *mem.Hierarchy // shared by I-side, D-side, and precon fetches

	res   Result
	ran   bool      // Run/RunStream/StartChunked consumed this simulator
	ck    *chunkRun // resumable chunked-run state (nil outside StartChunked..Finish)
	phase Phase

	fetchFree   uint64
	lastRetire  uint64
	lastResolve uint64

	// Observed port-idle calibration from detailed phases: idleSum is
	// the engine idle granted, elapsedSum the retire-to-retire cycles it
	// was granted over. Fast-forward scales its nominal drain by their
	// ratio so the engine advances at the machine's own measured pace
	// rather than as if the port were always free.
	idleSum    uint64
	elapsedSum uint64
}

// ErrRunTwice is returned when Run, RunStream or StartChunked is called
// on a Simulator that already ran: the predictors, caches and timing state
// are warm from the first run, so a second pass would silently measure
// a machine the paper never describes.
var ErrRunTwice = errors.New("pipeline: Run may be called only once per Simulator")

// ErrNotChunked is returned by RunTrace and Finish when no
// chunked run is open (StartChunked not called, or Finish already
// sealed the run).
var ErrNotChunked = errors.New("pipeline: no chunked run in progress (call StartChunked first)")

// chunkRun is the resumable state of a chunked run: the
// committed-instruction budget accounting across RunTrace calls.
type chunkRun struct {
	n      uint64 // committed instructions consumed (completed traces only)
	budget uint64
}

// New builds a simulator for the image: a frontend composed from the
// config's fetch-side slice, plus the optional full-timing backend.
func New(im *program.Image, cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg, im: im}
	h, err := mem.New(cfg.Mem, cfg.Backend.L2Lat)
	if err != nil {
		return nil, err
	}
	s.mem = h
	fcfg := cfg.frontendConfig()
	fcfg.Mem = h
	fe, err := frontend.New(im, fcfg)
	if err != nil {
		return nil, err
	}
	s.fe = fe
	if cfg.FullTiming {
		if s.dc, err = cache.New(cfg.DCache); err != nil {
			return nil, err
		}
		s.be = newBackend(cfg.Backend, s.dc, h)
	}
	return s, nil
}

// MustNew builds a simulator, panicking on config error.
func MustNew(im *program.Image, cfg Config) *Simulator {
	s, err := New(im, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Frontend exposes the composed fetch side for diagnostics and tests.
func (s *Simulator) Frontend() *frontend.Frontend { return s.fe }

// SetPhase switches the simulator's processing phase. The sampling
// runner calls it at phase boundaries; phase changes take effect at the
// next demanded trace, so they land exactly on trace boundaries.
func (s *Simulator) SetPhase(p Phase) { s.phase = p }

// Phase returns the current processing phase.
func (s *Simulator) Phase() Phase { return s.phase }

// SetFFObserve overrides Config.FFObservePrecon mid-run: whether
// fast-forwarded traces keep the preconstruction engine live. The
// sampling runner toggles this to confine engine stepping to the tail
// of each fast-forward stretch (sample.Plan.EngineWarm); it has no
// effect outside PhaseFastForward.
func (s *Simulator) SetFFObserve(on bool) { s.cfg.FFObservePrecon = on }

// Snapshot folds the component statistics into a Result without sealing
// the run: the sampling layer differences Snapshot results taken at
// measurement-unit boundaries to capture per-interval statistics while
// warm and fast-forward activity between units cancels out. Valid
// during a chunked run; the returned value is independent of later
// progress.
func (s *Simulator) Snapshot() Result { return s.fold() }

// PreconEngine exposes the preconstruction engine (nil when disabled)
// for diagnostics and the anatomy example.
func (s *Simulator) PreconEngine() *precon.Engine { return s.fe.Engine() }

// Mem exposes the memory hierarchy behind the L1s.
func (s *Simulator) Mem() *mem.Hierarchy { return s.mem }

// Run executes up to budget committed instructions of the program and
// returns the measurements: the functional emulator records the
// committed stream, which RunStream then replays. Run may be called once
// per Simulator; a second call returns ErrRunTwice.
func (s *Simulator) Run(budget uint64) (Result, error) {
	if s.ran {
		return s.res, ErrRunTwice
	}
	st, err := emulator.Record(s.im, budget)
	if err != nil {
		return s.res, fmt.Errorf("pipeline: %w", err)
	}
	return s.RunStream(st, budget)
}

// RunStream drives the simulator from a recorded stream: trace.Walk
// decodes and segments it with the simulator's own selection rules,
// and every demanded trace is stepped through RunTrace. This is the
// single-simulator loop; sweeps drive many simulators from one decode
// through the harness's group driver. Like Run, RunStream may be called
// once per Simulator.
func (s *Simulator) RunStream(st *emulator.Stream, budget uint64) (Result, error) {
	if err := s.StartChunked(budget); err != nil {
		return s.res, err
	}
	err := trace.Walk(st, s.cfg.Select, func(tr *trace.Trace, dyns []emulator.Dyn) bool {
		done, _ := s.RunTrace(tr, dyns) // cannot fail: the run is open
		return !done
	})
	if err != nil {
		return s.res, fmt.Errorf("pipeline: %w", err)
	}
	return s.Finish()
}

// StartChunked opens a resumable chunked run: subsequent RunTrace
// calls feed the segmented stream piecewise and Finish seals the
// measurements. It claims the simulator's single run — a second
// Start (or any Run* call) returns ErrRunTwice.
func (s *Simulator) StartChunked(budget uint64) error {
	if s.ran {
		return ErrRunTwice
	}
	s.ran = true
	s.ck = &chunkRun{budget: budget}
	return nil
}

// RunTrace consumes one demanded trace of a chunked run. tr and dyns
// must come from a segmenter with this simulator's selection rules over
// the same stream prefix, in order, and are borrowed only for the call;
// a sweep group segments each decoded chunk once and fans every trace
// out to its members, so neither decode nor selection is repeated per
// simulator. done reports that the budget is exhausted: a trace that
// would complete beyond it is dropped, as a final partial trace is, and
// the caller may stop feeding and call Finish.
func (s *Simulator) RunTrace(tr *trace.Trace, dyns []emulator.Dyn) (done bool, err error) {
	ck := s.ck
	if ck == nil {
		return false, ErrNotChunked
	}
	k := uint64(len(dyns))
	if k > ck.budget-ck.n {
		ck.n = ck.budget
		return true, nil
	}
	ck.n += k
	s.onTrace(tr, dyns)
	return ck.n == ck.budget, nil
}

// Finish seals a chunked run: the unfinished partial trace (if any) is
// dropped — it never became a demanded trace — and the component
// statistics fold into the returned Result.
func (s *Simulator) Finish() (Result, error) {
	if s.ck == nil {
		return s.res, ErrNotChunked
	}
	s.ck = nil
	s.finalize()
	return s.res, nil
}

// finalize folds the component statistics into the Result after the
// stream is exhausted.
func (s *Simulator) finalize() { s.res = s.fold() }

// fold combines the running Result with the current component counters
// into a complete Result, without mutating any simulator state. Both
// the end-of-run finalize and the mid-run Snapshot are this one fold.
func (s *Simulator) fold() Result {
	res := s.res
	res.Frontend = s.fe.Stats()
	res.TotalICMisses = s.fe.TotalICMisses()
	res.Precon = s.fe.PreconStats()
	res.Pred = s.fe.PredStats()
	if s.be != nil {
		res.Loads = s.be.loads
		res.DCacheMisses = s.be.dcacheMisses
		res.ARBForwards = s.be.arbForwards
	}
	if share, adjusts, ok := s.fe.AdaptiveStats(); ok {
		res.AdaptivePBShare = share
		res.AdaptiveAdjusts = adjusts
	}
	res.Intern = s.fe.StoreStats()
	res.Memory = s.mem.Stats()
	return res
}

// ReleaseStorage drains every trace supplier, returning interned
// references to the store. After a run, ReleaseStorage must leave the
// store with zero live traces — the leak invariant pinned by the
// pipeline tests. Useful when a caller keeps many finished simulators
// around (sweeps) and wants their slab memory reusable; a Simulator is
// single-use, so there is nothing to drain twice.
func (s *Simulator) ReleaseStorage() { s.fe.Drain() }

// InternStore exposes the simulator's trace store for tests and
// diagnostics.
func (s *Simulator) InternStore() *trace.Store { return s.fe.Store() }

// onTrace processes one demanded trace — supplied by the frontend's
// arbitration loop — and charges its timing. tr is borrowed from the
// segmenter (valid only for this call); the frontend's miss path
// interns it before it escapes into a store.
func (s *Simulator) onTrace(tr *trace.Trace, dyns []emulator.Dyn) {
	if s.phase == PhaseFastForward {
		s.fastTrace(tr, dyns)
		return
	}
	n := tr.Len()
	s.res.Traces++
	s.res.Instructions += uint64(n)

	sup := s.fe.Supply(tr, dyns, s.fetchFree)

	// Frontend timing: redirects delay the fetch after a next-trace
	// misprediction until the offending branch resolved.
	fetchStart := s.fetchFree
	if !sup.PredHit {
		redirect := s.lastResolve + uint64(s.cfg.MispredictPenalty)
		if redirect > fetchStart {
			fetchStart = redirect
		}
	}
	fetchDone := fetchStart + sup.FetchLat
	s.fetchFree = fetchDone

	var retire, resolve uint64
	if s.be != nil {
		preprocessed := s.cfg.PreprocEnabled && sup.Hit
		retire, resolve = s.be.dispatch(sup.Trace, dyns, fetchDone, preprocessed)
	} else {
		drain := uint64(float64(n)/s.cfg.FrontendIPC + 0.5)
		if drain == 0 {
			drain = 1
		}
		base := fetchDone
		if s.lastRetire > base {
			base = s.lastRetire
		}
		retire = base + drain
		resolve = retire
	}
	prevRetire := s.lastRetire
	s.lastRetire = retire
	s.lastResolve = resolve
	s.res.Cycles = retire

	// On a next-trace misprediction the machine dispatched the wrong
	// (predicted) trace before the branch resolved; the engine's stack
	// observes that wrong path and flushes it at recovery.
	if !sup.PredHit && sup.PredOK {
		s.fe.ReplayWrongPath(sup.PredID, sup.ID)
	}

	// Grant the engine the cycles the slow path left the port idle,
	// let it observe the dispatch stream, and train the predictors.
	// The idle interval starts at the previous retirement, so that is
	// where the port clock walks from.
	idle := int64(retire-prevRetire) - int64(sup.SlowBusy)
	if idle > 0 {
		s.idleSum += uint64(idle)
	}
	s.elapsedSum += retire - prevRetire
	s.fe.Retire(sup.Demand, idle, dyns, prevRetire)
}

// fastTrace processes one demanded trace in the fast-forward phase: the
// frontend's fast supply keeps every trainable fetch-side structure
// warm, the data cache (full timing only) keeps its tags and recency
// current, and no statistics move — interval deltas never see this
// activity. The cycle clock advances nominally (trace length over the
// frontend IPC): the skipped instructions took time in the machine
// being modelled, and keeping the clock monotonic lets the engine's
// port timestamps and the warm phase resume without time running
// backwards. The remaining timing-dependent state (backend occupancy,
// slow-path transients) is deliberately left for the warm phase.
func (s *Simulator) fastTrace(tr *trace.Trace, dyns []emulator.Dyn) {
	ipc := s.cfg.FrontendIPC
	if ipc <= 0 {
		ipc = 2
	}
	drain := uint64(float64(len(dyns))/ipc + 0.5)
	if drain == 0 {
		drain = 1
	}
	prev := s.lastRetire
	s.lastRetire = prev + drain
	s.lastResolve = s.lastRetire
	s.fetchFree = s.lastRetire
	// The engine's idle allowance is the nominal drain scaled by the
	// idle fraction the detailed phases actually observed — granting the
	// whole drain would let the engine run as if the port were never
	// contended, racing ahead of anything a full-detail run exhibits.
	idle := drain
	if s.elapsedSum > 0 {
		idle = uint64(float64(drain) * float64(s.idleSum) / float64(s.elapsedSum))
	}
	s.fe.SupplyFast(tr, dyns, prev, int(idle), s.cfg.FFObservePrecon)
	if s.dc != nil {
		for i := range dyns {
			d := &dyns[i]
			switch d.Inst.Op {
			case isa.OpLoad, isa.OpStore:
				s.dc.Warm(d.MemAddr)
			}
		}
	}
}
