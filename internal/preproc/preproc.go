// Package preproc implements trace preprocessing (Friendly/Patel/Patt
// 1998; Jacobson/Smith 1999), the backend-oriented companion mechanism
// the paper combines with preconstruction in §6. The fill unit
// transforms the instructions inside a trace — the trace cache only
// requires functional equivalence, not identity with the static code —
// to raise the execution engine's throughput. Three transformations are
// modeled:
//
//   - constant propagation: instructions whose register inputs are all
//     known constants within the trace become immediate moves with no
//     input dependences;
//   - combined-ALU targeting: a dependent pair (shift-or-add feeding an
//     ALU op) is fused into one 3-input combined-ALU operation, removing
//     the serializing +1 cycle between them;
//   - instruction scheduling: a dependence-height list schedule is
//     precomputed, letting the simple in-order processing elements issue
//     the trace as an out-of-order engine would.
//
// The package computes an Info the timing model consumes; it does not
// rewrite the committed semantics (the functional emulator remains the
// source of architectural truth).
package preproc

import (
	"tracepre/internal/isa"
	"tracepre/internal/trace"
)

// Info is the preprocessing metadata for one trace.
type Info struct {
	// Folded marks instructions (bit per trace slot) whose register
	// inputs were all compile-time constants within the trace; they
	// execute with no input dependences.
	Folded uint32
	// FusedWith[j] = i means instruction j was fused onto producer i
	// into a combined-ALU op: j's dependence on i costs zero cycles.
	// -1 means not fused.
	FusedWith []int16
	// Order is the precomputed issue order (indices into the trace),
	// topologically consistent and sorted by decreasing dependence
	// height.
	Order []uint8
	// FoldedCount and FusedCount summarize the transformation for
	// reports.
	FoldedCount, FusedCount int
}

// Optimize preprocesses a trace.
func Optimize(tr *trace.Trace) *Info {
	n := tr.Len()
	info := &Info{FusedWith: make([]int16, n), Order: make([]uint8, n)}
	for i := range info.FusedWith {
		info.FusedWith[i] = -1
	}

	foldConstants(tr, info)
	fusePairs(tr, info)
	schedule(tr, info)
	return info
}

// foldConstants runs constant propagation across the trace. A register
// becomes "known" when written by an instruction whose inputs are all
// known (immediates seed the lattice); r0 is always known.
func foldConstants(tr *trace.Trace, info *Info) {
	var known [isa.NumRegs]bool
	known[isa.RegZero] = true
	for i, in := range tr.Insts {
		allKnown := true
		var regs [2]uint8
		for _, r := range in.ReadsRegs(regs[:0]) {
			if !known[r] {
				allKnown = false
				break
			}
		}
		switch in.Op {
		case isa.OpLui:
			// No register inputs: result is a constant by definition,
			// but materializing a constant is not a fold.
			allKnown = true
		case isa.OpLoad:
			allKnown = false // memory contents are not propagated
		}
		if rd, writes := in.WritesReg(); writes {
			switch {
			case in.Op == isa.OpLui:
				known[rd] = true
			case in.Op == isa.OpLoad:
				known[rd] = false
			case allKnown && in.Classify() == isa.ClassALU:
				known[rd] = true
				if in.Op != isa.OpLui {
					info.Folded |= 1 << uint(i)
					info.FoldedCount++
				}
			default:
				known[rd] = false
			}
		}
	}
}

// fusible reports whether the producer op can be absorbed into the
// combined ALU (a shifted or added operand).
func fusibleProducer(op isa.Op) bool {
	switch op {
	case isa.OpShl, isa.OpShlI, isa.OpAdd, isa.OpAddI, isa.OpSub:
		return true
	}
	return false
}

// fusibleConsumer reports whether the consumer op can execute on the
// combined ALU.
func fusibleConsumer(op isa.Op) bool {
	switch op {
	case isa.OpAdd, isa.OpAddI, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpSlt, isa.OpSltu:
		return true
	}
	return false
}

// fusePairs finds dependent (producer, consumer) ALU pairs where the
// producer's result has exactly one consumer inside the trace and both
// fit the combined-ALU template, and fuses them.
func fusePairs(tr *trace.Trace, info *Info) {
	n := tr.Len()
	var regs [2]uint8
	for i := 0; i < n; i++ {
		in := tr.Insts[i]
		if !fusibleProducer(in.Op) {
			continue
		}
		rd, writes := in.WritesReg()
		if !writes {
			continue
		}
		// Find consumers of rd before it is redefined.
		consumer := -1
		uses := 0
		for j := i + 1; j < n; j++ {
			for _, r := range tr.Insts[j].ReadsRegs(regs[:0]) {
				if r == rd {
					uses++
					if consumer == -1 {
						consumer = j
					}
				}
			}
			if wr, w := tr.Insts[j].WritesReg(); w && wr == rd {
				break
			}
		}
		if uses != 1 || consumer == -1 {
			continue
		}
		if !fusibleConsumer(tr.Insts[consumer].Op) {
			continue
		}
		if info.FusedWith[consumer] != -1 || info.Folded&(1<<uint(i)) != 0 {
			continue
		}
		// The producer itself must not already serve as a fused
		// consumer of something else (one fusion per instruction).
		already := false
		if info.FusedWith[i] != -1 {
			already = true
		}
		for _, f := range info.FusedWith {
			if int(f) == i {
				already = true
			}
		}
		if already {
			continue
		}
		info.FusedWith[consumer] = int16(i)
		info.FusedCount++
	}
}

// schedule computes a dependence-height list schedule: producers come
// before consumers, longest chains first.
func schedule(tr *trace.Trace, info *Info) {
	n := tr.Len()
	height := make([]int, n)
	var regs [2]uint8
	// Heights from the bottom: an instruction's height is 1 + max of
	// its consumers' heights.
	for i := n - 1; i >= 0; i-- {
		h := 1
		rd, writes := tr.Insts[i].WritesReg()
		if writes {
			for j := i + 1; j < n; j++ {
				for _, r := range tr.Insts[j].ReadsRegs(regs[:0]) {
					if r == rd && height[j]+1 > h {
						h = height[j] + 1
					}
				}
				if wr, w := tr.Insts[j].WritesReg(); w && wr == rd {
					break
				}
			}
		}
		height[i] = h
	}
	for i := range info.Order {
		info.Order[i] = uint8(i)
	}
	// Stable insertion sort by descending height keeps program order
	// among equals and is tiny for n <= 16.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && height[info.Order[j]] > height[info.Order[j-1]]; j-- {
			info.Order[j], info.Order[j-1] = info.Order[j-1], info.Order[j]
		}
	}
}
