package preproc

import (
	"testing"

	"tracepre/internal/isa"
	"tracepre/internal/trace"
)

// mk builds a trace from instructions at sequential addresses.
func mk(insts ...isa.Inst) *trace.Trace {
	pcs := make([]uint32, len(insts))
	for i := range pcs {
		pcs[i] = 0x1000 + uint32(i*4)
	}
	return &trace.Trace{PCs: pcs, Insts: insts}
}

func TestConstantFolding(t *testing.T) {
	tr := mk(
		isa.Inst{Op: isa.OpLui, Rd: 1, Imm: 2},         // r1 known (materialize)
		isa.Inst{Op: isa.OpOrI, Rd: 1, Ra: 1, Imm: 3},  // known -> folded
		isa.Inst{Op: isa.OpAddI, Rd: 2, Ra: 1, Imm: 5}, // known -> folded
		isa.Inst{Op: isa.OpLoad, Rd: 3, Ra: 1, Imm: 0}, // load: not folded, r3 unknown
		isa.Inst{Op: isa.OpAdd, Rd: 4, Ra: 3, Rb: 2},   // r3 unknown -> not folded
		isa.Inst{Op: isa.OpAdd, Rd: 5, Ra: 1, Rb: 2},   // both known -> folded
	)
	info := Optimize(tr)
	wantFolded := map[int]bool{1: true, 2: true, 5: true}
	for i := 0; i < tr.Len(); i++ {
		got := info.Folded&(1<<uint(i)) != 0
		if got != wantFolded[i] {
			t.Errorf("instr %d folded = %v, want %v", i, got, wantFolded[i])
		}
	}
	if info.FoldedCount != 3 {
		t.Errorf("FoldedCount = %d", info.FoldedCount)
	}
}

func TestFoldingStopsAtUnknown(t *testing.T) {
	tr := mk(
		isa.Inst{Op: isa.OpLoad, Rd: 1, Ra: 6, Imm: 0},
		isa.Inst{Op: isa.OpAddI, Rd: 2, Ra: 1, Imm: 1}, // depends on load
	)
	info := Optimize(tr)
	if info.Folded != 0 {
		t.Errorf("Folded = %b, want 0", info.Folded)
	}
}

func TestFusion(t *testing.T) {
	tr := mk(
		isa.Inst{Op: isa.OpLoad, Rd: 1, Ra: 6, Imm: 0},
		isa.Inst{Op: isa.OpShlI, Rd: 2, Ra: 1, Imm: 2}, // producer (depends on load: no fold)
		isa.Inst{Op: isa.OpAdd, Rd: 3, Ra: 2, Rb: 7},   // single consumer -> fused
		isa.Inst{Op: isa.OpStore, Rb: 3, Ra: 6, Imm: 4},
	)
	info := Optimize(tr)
	if info.FusedWith[2] != 1 {
		t.Errorf("FusedWith[2] = %d, want 1", info.FusedWith[2])
	}
	if info.FusedCount != 1 {
		t.Errorf("FusedCount = %d", info.FusedCount)
	}
}

func TestNoFusionWithMultipleUses(t *testing.T) {
	tr := mk(
		isa.Inst{Op: isa.OpLoad, Rd: 9, Ra: 6, Imm: 0},
		isa.Inst{Op: isa.OpShlI, Rd: 2, Ra: 9, Imm: 2},
		isa.Inst{Op: isa.OpAdd, Rd: 3, Ra: 2, Rb: 7}, // use 1
		isa.Inst{Op: isa.OpAdd, Rd: 4, Ra: 2, Rb: 7}, // use 2
	)
	info := Optimize(tr)
	if info.FusedWith[2] != -1 || info.FusedWith[3] != -1 {
		t.Errorf("fused despite multiple uses: %v", info.FusedWith)
	}
}

func TestNoFusionAcrossRedefinition(t *testing.T) {
	tr := mk(
		isa.Inst{Op: isa.OpLoad, Rd: 9, Ra: 6, Imm: 0},
		isa.Inst{Op: isa.OpShlI, Rd: 2, Ra: 9, Imm: 2},
		isa.Inst{Op: isa.OpLoad, Rd: 2, Ra: 6, Imm: 8}, // redefines r2
		isa.Inst{Op: isa.OpAdd, Rd: 3, Ra: 2, Rb: 7},   // reads the NEW r2
	)
	info := Optimize(tr)
	if info.FusedWith[3] != -1 {
		t.Errorf("fused across redefinition: %v", info.FusedWith)
	}
}

func TestFusionOnePerProducer(t *testing.T) {
	// A chain a->b->c: b fuses onto a; c must not also fuse onto b.
	tr := mk(
		isa.Inst{Op: isa.OpLoad, Rd: 1, Ra: 6, Imm: 0},
		isa.Inst{Op: isa.OpAdd, Rd: 2, Ra: 1, Rb: 7}, // producer a
		isa.Inst{Op: isa.OpAdd, Rd: 3, Ra: 2, Rb: 7}, // b fused onto a
		isa.Inst{Op: isa.OpAdd, Rd: 4, Ra: 3, Rb: 7}, // c: b already fused
	)
	info := Optimize(tr)
	if info.FusedWith[2] != 1 {
		t.Fatalf("FusedWith[2] = %d", info.FusedWith[2])
	}
	if info.FusedWith[3] != -1 {
		t.Errorf("chain double-fused: %v", info.FusedWith)
	}
}

// TestScheduleTopological: the precomputed order must put producers
// before their consumers.
func TestScheduleTopological(t *testing.T) {
	tr := mk(
		isa.Inst{Op: isa.OpLoad, Rd: 1, Ra: 6, Imm: 0},
		isa.Inst{Op: isa.OpAdd, Rd: 2, Ra: 1, Rb: 1},
		isa.Inst{Op: isa.OpLoad, Rd: 3, Ra: 6, Imm: 4},
		isa.Inst{Op: isa.OpAdd, Rd: 4, Ra: 3, Rb: 2},
		isa.Inst{Op: isa.OpXor, Rd: 5, Ra: 7, Rb: 7}, // independent
	)
	info := Optimize(tr)
	pos := make([]int, tr.Len())
	for k, idx := range info.Order {
		pos[idx] = k
	}
	deps := [][2]int{{0, 1}, {1, 3}, {2, 3}}
	for _, d := range deps {
		if pos[d[0]] > pos[d[1]] {
			t.Errorf("consumer %d scheduled before producer %d (order %v)", d[1], d[0], info.Order)
		}
	}
}

// TestScheduleLongChainFirst: the long dependence chain's head must be
// scheduled before an independent leaf instruction.
func TestScheduleLongChainFirst(t *testing.T) {
	tr := mk(
		isa.Inst{Op: isa.OpXor, Rd: 5, Ra: 7, Rb: 7},   // independent, height 1
		isa.Inst{Op: isa.OpLoad, Rd: 1, Ra: 6, Imm: 0}, // chain head, height 3
		isa.Inst{Op: isa.OpAdd, Rd: 2, Ra: 1, Rb: 1},
		isa.Inst{Op: isa.OpAdd, Rd: 3, Ra: 2, Rb: 2},
	)
	info := Optimize(tr)
	if info.Order[0] != 1 {
		t.Errorf("order = %v, want chain head (1) first", info.Order)
	}
}

func TestOptimizeEmptyAndTrivial(t *testing.T) {
	tr := mk(isa.Inst{Op: isa.OpNop})
	info := Optimize(tr)
	if len(info.Order) != 1 || info.Order[0] != 0 {
		t.Errorf("trivial order = %v", info.Order)
	}
	empty := &trace.Trace{}
	info = Optimize(empty)
	if len(info.Order) != 0 || len(info.FusedWith) != 0 {
		t.Errorf("empty trace info = %+v", info)
	}
}

// aluTrace is a full 16-instruction trace of loads, shifts and
// dependent adds: every instruction reads registers.
func aluTrace() *trace.Trace {
	insts := make([]isa.Inst, 16)
	for i := range insts {
		switch i % 4 {
		case 0:
			insts[i] = isa.Inst{Op: isa.OpLoad, Rd: uint8(1 + i%7), Ra: 6, Imm: int32(i * 4)}
		case 1:
			insts[i] = isa.Inst{Op: isa.OpShlI, Rd: uint8(1 + (i+1)%7), Ra: uint8(1 + i%7), Imm: 2}
		default:
			insts[i] = isa.Inst{Op: isa.OpAdd, Rd: uint8(1 + (i+2)%7), Ra: uint8(1 + (i+1)%7), Rb: uint8(1 + i%7)}
		}
	}
	return mk(insts...)
}

// TestOptimizeAllocs pins Optimize's allocations at its structural
// count, whatever the trace length: the Info, its FusedWith and Order
// slices, and schedule's height scratch. Register reads go through
// stack buffers, never one allocation per instruction.
func TestOptimizeAllocs(t *testing.T) {
	tr := aluTrace()
	if avg := testing.AllocsPerRun(100, func() { Optimize(tr) }); avg != 4 {
		t.Errorf("Optimize allocates %.1f times per %d-instruction trace, want 4", avg, tr.Len())
	}
}

func BenchmarkOptimize(b *testing.B) {
	tr := aluTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Optimize(tr)
	}
}
