// custom-workload shows how to run your own program through the trace
// processor: write it in the bundled assembly dialect, assemble it, and
// hand the image to the simulator with core.RunImage.
//
// The kernel is a miniature bytecode interpreter: an indirect dispatch
// over a jump table into handlers that call shared helpers and run
// small loops. It illustrates both sides of preconstruction:
//
//   - the handlers' direct calls and loops create return-point and
//     loop-exit regions the engine preconstructs, so the traces after
//     each helper call and loop exit are supplied from the buffers;
//
//   - the jalr targets themselves (the handler entries) cannot be
//     preconstructed — the engine terminates construction at indirect
//     jumps whose targets it cannot resolve (§2.1 of the paper).
//
//     go run ./examples/custom-workload
package main

import (
	"fmt"
	"log"
	"strings"

	"tracepre/internal/asm"
	"tracepre/internal/core"
	"tracepre/internal/stats"
)

// handlerBody emits one bytecode handler: local work, a call to a
// shared helper, a small loop, more work, return.
func handlerBody(i int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "op_%d:\n", i)
	fmt.Fprintf(&b, "        addi  r8, sp, -8\n")
	fmt.Fprintf(&b, "        sw    ra, 0(r8)\n")
	for k := 0; k < 4+i%5; k++ {
		fmt.Fprintf(&b, "        addi  r%d, r%d, %d\n", 1+(i+k)%6, 1+(i+k+1)%6, i+k)
	}
	fmt.Fprintf(&b, "        jal   helper_%d\n", i%3)
	fmt.Fprintf(&b, "        addi  r9, r0, %d\n", 3+i%4)
	fmt.Fprintf(&b, "op_%d_loop:\n", i)
	fmt.Fprintf(&b, "        addi  r4, r4, 2\n")
	fmt.Fprintf(&b, "        addi  r5, r5, 1\n")
	fmt.Fprintf(&b, "        addi  r9, r9, -1\n")
	fmt.Fprintf(&b, "        bne   r9, r0, op_%d_loop\n", i)
	for k := 0; k < 3+i%4; k++ {
		fmt.Fprintf(&b, "        xor   r%d, r%d, r%d\n", 1+(i+k)%6, 1+(i+k+2)%6, 1+(i+k+4)%6)
	}
	fmt.Fprintf(&b, "        lw    ra, 0(r8)\n")
	fmt.Fprintf(&b, "        ret\n")
	return b.String()
}

func buildSource() string {
	const nHandlers = 12
	var b strings.Builder
	b.WriteString(`
        .org   0x10000
        .entry main

; r20: LCG state, r23: LCG multiplier, r24: table base
main:   li    r23, 1664525
        li    r20, 12345
        la    r24, table
        addi  r25, r0, 3000        ; interpreted "instructions"

dispatch:
        mul   r20, r20, r23
        addi  r20, r20, 12347
        shri  r16, r20, 12
        andi  r16, r16, 15
        shli  r16, r16, 2
        add   r16, r16, r24
        lw    r16, 0(r16)
        jalr  r16
        addi  r25, r25, -1
        bne   r25, r0, dispatch
        halt
`)
	for i := 0; i < nHandlers; i++ {
		b.WriteString(handlerBody(i))
	}
	// Shared helpers the handlers call.
	for h := 0; h < 3; h++ {
		fmt.Fprintf(&b, "helper_%d:\n", h)
		for k := 0; k < 6+h*3; k++ {
			fmt.Fprintf(&b, "        addi  r%d, r%d, %d\n", 10+(h+k)%4, 10+(h+k+1)%4, h+k)
		}
		fmt.Fprintf(&b, "        ret\n")
	}
	// The 16-way table maps onto the 12 handlers (some repeats).
	b.WriteString("        .data  0x800000\ntable:\n")
	for w := 0; w < 16; w++ {
		fmt.Fprintf(&b, "        .addr  op_%d\n", w%nHandlers)
	}
	return b.String()
}

func main() {
	im, err := asm.Assemble(buildSource())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assembled %d instructions at 0x%x\n\n", im.NumInstrs(), im.Base)

	const budget = 300_000
	base, err := core.RunImage(im, core.BaselineConfig(32), budget)
	if err != nil {
		log.Fatal(err)
	}
	pre, err := core.RunImage(im, core.PreconConfig(32, 32), budget)
	if err != nil {
		log.Fatal(err)
	}
	// Extension: let the constructor follow the indirect target buffer
	// through the dispatch jalr instead of abandoning the path there.
	extCfg := core.PreconConfig(32, 32)
	extCfg.Precon.ResolveIndirects = true
	ext, err := core.RunImage(im, extCfg, budget)
	if err != nil {
		log.Fatal(err)
	}

	t := stats.NewTable("interpreter kernel: trace supply",
		"configuration", "miss/1000 instr", "supplied by precon")
	t.AddRow("32-entry TC", base.TCMissPerKI(), base.PreconSupplied())
	t.AddRow("32 TC + 32 PB (paper)", pre.TCMissPerKI(), pre.PreconSupplied())
	t.AddRow("32 TC + 32 PB + indirect targets", ext.TCMissPerKI(), ext.PreconSupplied())
	fmt.Print(t.String())
	fmt.Printf("\npaper mechanism cut misses by %.1f%%; resolving indirect targets by %.1f%%\n",
		stats.Reduction(base.TCMissPerKI(), pre.TCMissPerKI()),
		stats.Reduction(base.TCMissPerKI(), ext.TCMissPerKI()))
	fmt.Println("(the paper's engine terminates at the dispatch jalr — handler entries stay")
	fmt.Println(" cold; the extension follows the target buffer through it)")
}
