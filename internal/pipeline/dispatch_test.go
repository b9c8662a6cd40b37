package pipeline

import (
	"math/rand"
	"testing"

	"tracepre/internal/cache"
	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/mem"
	"tracepre/internal/preproc"
	"tracepre/internal/trace"
	"tracepre/internal/workload"
)

// backendPair runs the precomputed-dependence dispatch and the oracle
// scan side by side, each on its own D-cache and memory level.
type backendPair struct {
	got, want *backend
}

func newBackendPair(t testing.TB, cfg BackendConfig, mc mem.Config) backendPair {
	t.Helper()
	mk := func() *backend {
		h, err := mem.New(mc, cfg.L2Lat)
		if err != nil {
			t.Fatal(err)
		}
		return newBackend(cfg, cache.MustNew(DefaultConfig().DCache), h)
	}
	return backendPair{got: mk(), want: mk()}
}

// step dispatches one trace on both backends and reports the first
// difference in their results or in any state a later trace can see.
func (p backendPair) step(t testing.TB, tr *trace.Trace, dyns []emulator.Dyn, ready uint64, pre bool) (retire, resolve uint64) {
	t.Helper()
	retire, resolve = p.got.dispatch(tr, dyns, ready, pre)
	wRetire, wResolve := p.want.dispatchOracle(tr, dyns, ready, pre)
	if retire != wRetire || resolve != wResolve {
		t.Fatalf("trace %v (pre=%v, ready=%d): (retire, resolve) = (%d, %d), oracle (%d, %d)",
			tr.Insts, pre, ready, retire, resolve, wRetire, wResolve)
	}
	g, w := p.got, p.want
	switch {
	case g.regReady != w.regReady:
		t.Fatalf("regReady differs after trace %v:\n got %v\nwant %v", tr.Insts, g.regReady, w.regReady)
	case g.arb != w.arb || g.arbNext != w.arbNext:
		t.Fatalf("ARB differs after trace %v", tr.Insts)
	case g.retired != w.retired || g.k != w.k:
		t.Fatalf("retired/k = %d/%d, oracle %d/%d", g.retired, g.k, w.retired, w.k)
	case g.loads != w.loads || g.dcacheMisses != w.dcacheMisses || g.arbForwards != w.arbForwards:
		t.Fatalf("loads/misses/forwards = %d/%d/%d, oracle %d/%d/%d",
			g.loads, g.dcacheMisses, g.arbForwards, w.loads, w.dcacheMisses, w.arbForwards)
	case g.mem.Stats() != w.mem.Stats():
		t.Fatalf("memory level stats differ:\n got %+v\nwant %+v", g.mem.Stats(), w.mem.Stats())
	}
	for i := range g.peFree {
		if g.peFree[i] != w.peFree[i] {
			t.Fatalf("peFree = %v, oracle %v", g.peFree, w.peFree)
		}
	}
	return retire, resolve
}

// randBackendConfig draws a backend shape across the ranges the
// scheduler's loops depend on.
func randBackendConfig(r *rand.Rand) BackendConfig {
	cfg := DefaultBackendConfig()
	cfg.Lookahead = 1 + r.Intn(16)
	cfg.IssuePerPE = 1 + r.Intn(4)
	cfg.NumPEs = 1 + r.Intn(8)
	cfg.XferLat = r.Intn(4)
	return cfg
}

// withOpt returns the trace to dispatch: tr itself, or a shallow copy
// carrying the fill unit's preprocessing.
func withOpt(tr *trace.Trace, pre bool) *trace.Trace {
	if !pre {
		return tr
	}
	cp := *tr
	cp.Opt = preproc.Optimize(tr)
	return &cp
}

// TestDispatchMatchesOracle requires dispatch to agree with the oracle
// scan trace by trace, on random traces under random backend shapes
// and on the recorded benchmark streams behind a modeled L2.
func TestDispatchMatchesOracle(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		for seed := int64(0); seed < 200; seed++ {
			r := rand.New(rand.NewSource(seed))
			p := newBackendPair(t, randBackendConfig(r), mem.Config{})
			clock := uint64(r.Intn(20))
			for k := 0; k < 60; k++ {
				tr, dyns := randTrace(r, uint32(0x1000+k*0x100))
				pre := r.Intn(2) == 0
				_, resolve := p.step(t, withOpt(tr, pre), dyns, clock, pre)
				// Mostly fetch-bound, sometimes held behind a redirect.
				clock += 1 + uint64(r.Intn(4))
				if r.Intn(4) == 0 && resolve > clock {
					clock = resolve
				}
			}
		}
	})
	for _, bench := range []string{"gcc", "go", "perl", "vortex"} {
		t.Run(bench, func(t *testing.T) {
			st := recordBench(t, bench, 40_000)
			for _, optimize := range []bool{false, true} {
				r := rand.New(rand.NewSource(1))
				p := newBackendPair(t, DefaultBackendConfig(), mem.DefaultModeledL2())
				var clock uint64
				err := trace.Walk(st, trace.DefaultSelectConfig(), func(tr *trace.Trace, dyns []emulator.Dyn) bool {
					pre := optimize && r.Intn(4) != 0 // trace-cache hits run preprocessed
					_, resolve := p.step(t, withOpt(tr, pre), dyns, clock, pre)
					clock++
					if r.Intn(8) == 0 && resolve > clock {
						clock = resolve
					}
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// recordBench records budget instructions of a named benchmark.
func recordBench(t testing.TB, name string, budget uint64) *emulator.Stream {
	t.Helper()
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	im, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	st, err := emulator.Record(im, budget)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// FuzzDispatch decodes a backend shape, a preprocess bit and one trace
// of up to 16 slots (opcode, registers, word address) from the input,
// dispatches the trace three times in a row — later dispatches see the
// registers and stores the earlier ones published — and requires the
// oracle's results and state after each.
func FuzzDispatch(f *testing.F) {
	f.Add([]byte{9, 1, 3, 2, 0, 5, 1, 2, 3, 4, 20, 4, 1, 2, 3, 19, 5, 1, 0, 3})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 19, 4, 0, 0, 1, 20, 0, 4, 5, 1, 19, 6, 4, 0, 1, 3, 7, 6, 6, 2})
	f.Add([]byte{15, 3, 7, 3, 1, 3, 15, 1, 1, 1, 0, 1, 2, 1, 1, 0, 14, 3, 2, 0, 0, 10, 4, 3, 0, 0, 1, 5, 4, 4, 0})
	f.Add([]byte{2, 1, 1, 1, 0, 7, 21, 0, 1, 2, 3, 27, 0, 0, 0, 0, 28, 0, 31, 0, 0, 16, 31, 0, 0, 0, 4, 31, 31, 31, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		const header, slot = 5, 5
		if len(data) < header+slot {
			return
		}
		cfg := DefaultBackendConfig()
		cfg.Lookahead = 1 + int(data[0]%16)
		cfg.IssuePerPE = 1 + int(data[1]%4)
		cfg.NumPEs = 1 + int(data[2]%8)
		cfg.XferLat = int(data[3] % 4)
		pre := data[4]&1 != 0
		body := data[header:]
		n := min(len(body)/slot, 16)
		insts := make([]isa.Inst, n)
		dyns := make([]emulator.Dyn, n)
		pcs := make([]uint32, n)
		for i := range insts {
			b := body[i*slot : (i+1)*slot]
			in := isa.Inst{Op: isa.Op(b[0] % uint8(isa.OpHalt+1)), Rd: b[1] % isa.NumRegs, Ra: b[2] % isa.NumRegs, Rb: b[3] % isa.NumRegs}
			pcs[i] = 0x1000 + uint32(i*4)
			dyns[i] = emulator.Dyn{PC: pcs[i], Inst: in, NextPC: pcs[i] + 4}
			if in.Op == isa.OpLoad || in.Op == isa.OpStore {
				dyns[i].MemAddr = 0x40000 + uint32(b[4]%16)*4
			}
			insts[i] = in
		}
		tr := withOpt(&trace.Trace{PCs: pcs, Insts: insts}, pre)
		p := newBackendPair(t, cfg, mem.Config{})
		for k := uint64(0); k < 3; k++ {
			p.step(t, tr, dyns, k*uint64(data[4]>>1), pre)
		}
	})
}

// dispatchMix is a recorded gcc trace stream held for repeated
// dispatch: deep copies of every trace and its records, every other
// trace preprocessed.
type dispatchMix struct {
	traces []*trace.Trace
	dyns   [][]emulator.Dyn
	pre    []bool
}

func newDispatchMix(t testing.TB, budget uint64) dispatchMix {
	t.Helper()
	var m dispatchMix
	err := trace.Walk(recordBench(t, "gcc", budget), trace.DefaultSelectConfig(), func(tr *trace.Trace, dyns []emulator.Dyn) bool {
		pre := len(m.traces)%2 == 1
		cp := tr.Clone()
		if pre {
			cp.Opt = preproc.Optimize(cp)
		}
		m.traces = append(m.traces, cp)
		m.dyns = append(m.dyns, append([]emulator.Dyn(nil), dyns...))
		m.pre = append(m.pre, pre)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// run dispatches trace i of the mix (modulo its length) at a
// fetch-bound clock.
func (m dispatchMix) run(be *backend, i int) {
	i %= len(m.traces)
	be.dispatch(m.traces[i], m.dyns[i], be.k, m.pre[i])
}

// TestDispatchSteadyStateAllocs pins dispatch to zero allocations: its
// working state lives in the backend's reused scratch.
func TestDispatchSteadyStateAllocs(t *testing.T) {
	m := newDispatchMix(t, 20_000)
	be := testBackend()
	for i := range m.traces {
		m.run(be, i) // warm the D-cache and the memory level
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		m.run(be, i)
		i++
	}); allocs != 0 {
		t.Errorf("dispatch allocates %.2f times per trace, want 0", allocs)
	}
}

// BenchmarkDispatch measures the backend scheduler alone over a
// recorded gcc trace mix, half of it preprocessed; one op is one trace.
func BenchmarkDispatch(b *testing.B) {
	m := newDispatchMix(b, 200_000)
	be := testBackend()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.run(be, i)
	}
}
