package pipeline

import (
	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/preproc"
	"tracepre/internal/trace"
)

// dispatchOracle is the direct cycle-by-cycle scheduler dispatch
// replaced: every cycle it re-derives each window slot's readiness,
// finding each source's in-trace producer by scanning every earlier
// slot. It is kept only as the reference the precomputed-dependence
// dispatch is checked against (TestDispatchMatchesOracle,
// FuzzDispatch).
func (b *backend) dispatchOracle(tr *trace.Trace, dyns []emulator.Dyn, ready uint64, preprocessed bool) (retire, resolve uint64) {
	pe := int(b.k) % b.cfg.NumPEs
	b.k++
	start := ready
	if b.peFree[pe] > start {
		start = b.peFree[pe]
	}

	var opt *preproc.Info
	if preprocessed {
		opt, _ = tr.Opt.(*preproc.Info)
	}

	n := tr.Len()
	scr := &oracleScratch{}
	// Priority order: program order, or the fill unit's schedule.
	order := scr.order[:n]
	for i := range order {
		order[i] = i
	}
	lookahead := b.cfg.Lookahead
	if opt != nil {
		for i, idx := range opt.Order {
			order[i] = int(idx)
		}
		lookahead = n // the schedule already sees the whole window
	}

	// fusedOf[i] = consumer fused onto producer i, or -1.
	fusedOf := scr.fusedOf[:n]
	for i := range fusedOf {
		fusedOf[i] = -1
	}
	if opt != nil {
		for j, p := range opt.FusedWith {
			if p >= 0 {
				fusedOf[p] = j
			}
		}
	}

	// writer[r] = last slot in this trace writing register r, -1 none.
	writer := &scr.writer
	for r := range writer {
		writer[r] = -1
	}
	for i, in := range tr.Insts {
		if rd, w := in.WritesReg(); w {
			writer[rd] = int8(i)
		}
	}

	// Memory dependences: prevStore[i] is the slot of the latest
	// earlier in-trace store to the same word as load i (-1 if none);
	// loadFloor[i] is the completion cycle of the youngest in-flight
	// store from earlier traces to that word (the ARB state is fixed
	// for the duration of this trace — stores publish at the end).
	prevStore := scr.prevStore[:n]
	loadFloor := scr.loadFloor[:n]
	scr.storeN = 0
	for i, in := range tr.Insts {
		prevStore[i] = -1
		loadFloor[i] = 0
		switch in.Op {
		case isa.OpLoad:
			if j, ok := scr.lastStoreTo(dyns[i].MemAddr &^ 3); ok {
				prevStore[i] = j
				b.arbForwards++
			} else if ar := b.arbReady(dyns[i].MemAddr); ar > start {
				loadFloor[i] = ar
				b.arbForwards++
			}
		case isa.OpStore:
			scr.noteStore(dyns[i].MemAddr&^3, i)
		}
	}
	// firstWriter resolves whether a read at slot i sees an external
	// value or an in-trace producer: the last writer before i.
	producerOf := func(i int, r uint8) int {
		p := -1
		for j := 0; j < i; j++ {
			if rd, w := tr.Insts[j].WritesReg(); w && rd == r {
				p = j
			}
		}
		return p
	}

	doneOf := scr.doneOf[:n]
	issuedAt := scr.issuedAt[:n]
	issued := scr.issued[:n]
	for i := 0; i < n; i++ {
		doneOf[i] = 0
		issuedAt[i] = 0
		issued[i] = false
	}
	remaining := n

	readyAt := func(i int) (uint64, bool) {
		in := tr.Insts[i]
		rdy := start
		// Memory dependences through the ARB apply even to
		// constant-folded address computations.
		if in.Op == isa.OpLoad {
			if j := prevStore[i]; j >= 0 {
				if !issued[j] {
					return 0, false
				}
				if doneOf[j] > rdy {
					rdy = doneOf[j]
				}
			} else if loadFloor[i] > rdy {
				rdy = loadFloor[i]
			}
		}
		if opt != nil && opt.Folded&(1<<uint(i)) != 0 {
			return rdy, true
		}
		fusedOnto := -1
		if opt != nil && opt.FusedWith[i] >= 0 {
			fusedOnto = int(opt.FusedWith[i])
		}
		var regScratch [4]uint8
		for _, r := range in.ReadsRegs(regScratch[:0]) {
			if r == isa.RegZero {
				continue
			}
			if p := producerOf(i, r); p >= 0 {
				if !issued[p] {
					return 0, false
				}
				c := doneOf[p]
				if p == fusedOnto {
					c = issuedAt[p] // combined ALU: dependence is free
				}
				if c > rdy {
					rdy = c
				}
			} else {
				st := b.regReady[r]
				c := st.cycle
				if st.pe != pe && c > start {
					c += uint64(b.cfg.XferLat)
				}
				if c > rdy {
					rdy = c
				}
			}
		}
		return rdy, true
	}

	lastDone := start
	resolve = start
	for c := start; remaining > 0; c++ {
		slots := b.cfg.IssuePerPE
		unissuedSeen := 0
		for _, idx := range order {
			if issued[idx] {
				continue
			}
			unissuedSeen++
			if unissuedSeen > lookahead || slots == 0 {
				break
			}
			if opt == nil || opt.FusedWith[idx] < 0 {
				// Fused consumers issue with their producer below.
				rdy, ok := readyAt(idx)
				if !ok || rdy > c {
					continue
				}
				issued[idx] = true
				issuedAt[idx] = c
				doneOf[idx] = c + b.latency(tr.Insts[idx], dyns[idx], c)
				remaining--
				slots--
				if f := fusedOf[idx]; f >= 0 && !issued[f] {
					issued[f] = true
					issuedAt[f] = c
					doneOf[f] = c + b.latency(tr.Insts[f], dyns[f], c)
					remaining--
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if doneOf[i] > lastDone {
			lastDone = doneOf[i]
		}
		if tr.Insts[i].IsControl() && doneOf[i] > resolve {
			resolve = doneOf[i]
		}
	}

	// Publish register results and store completions for later traces.
	for r, idx := range writer {
		if idx >= 0 {
			b.regReady[r] = regStamp{cycle: doneOf[idx], pe: pe}
		}
	}
	for i, in := range tr.Insts {
		if in.Op == isa.OpStore {
			b.arbRecord(dyns[i].MemAddr, doneOf[i])
		}
	}

	retire = lastDone
	if b.retired > retire {
		retire = b.retired // in-order retirement
	}
	b.retired = retire
	b.peFree[pe] = retire
	if resolve == start {
		resolve = retire // traces with no control instruction
	}
	return retire, resolve
}

// oracleScratch is the oracle's per-call working state: dispatch's
// scratch plus the per-slot arrays the precomputed dependences
// replaced.
type oracleScratch struct {
	dispatchScratch
	prevStore [16]int
	loadFloor [16]uint64
	issuedAt  [16]uint64
}
