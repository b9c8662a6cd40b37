package emulator

import (
	"errors"
	"strings"
	"testing"

	"tracepre/internal/isa"
	"tracepre/internal/program"
	"tracepre/internal/workload"
)

// TestRecordMatchesOracle requires Record's stream to equal the record
// oracle's byte for byte — taken bits, aux deltas, sync index, entry
// and length — on every benchmark, at budgets from empty through a
// single instruction to several sync intervals.
func TestRecordMatchesOracle(t *testing.T) {
	budgets := []uint64{0, 1, 1_000, 70_000, 1_000_000}
	if testing.Short() {
		budgets = budgets[:4]
	}
	for _, name := range workload.Names() {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		im, err := workload.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range budgets {
			got, err := Record(im, budget)
			if err != nil {
				t.Fatalf("%s at %d: %v", name, budget, err)
			}
			want, err := RecordOracle(im, budget)
			if err != nil {
				t.Fatalf("%s at %d: oracle: %v", name, budget, err)
			}
			if err := StreamDiff(got, want); err != nil {
				t.Errorf("%s at %d: %v", name, budget, err)
			}
		}
	}
}

// TestRecordEdgeCases holds Record to the oracle on hand-built images
// at the edges of the loop: errors (no stream, the same error), a halt
// inside the budget, the smallest budgets, indirect jumps that complete
// a sync interval exactly, jalr through the link register and writes
// to r0.
func TestRecordEdgeCases(t *testing.T) {
	// syncLoop runs a 14-instruction loop closed by an indirect jump op
	// through r1. The 2-instruction prologue and 4681 iterations make
	// 65536 = SyncInterval, so the jump of iteration 4681 commits the
	// instruction that completes the first interval exactly.
	syncLoop := func(op isa.Op) func(b *program.Builder) {
		return func(b *program.Builder) {
			b.LoadAddr(1, "top")
			b.Label("top")
			for k := 0; k < 13; k++ {
				b.ALUI(isa.OpAddI, 2, 2, 1)
			}
			b.Emit(isa.Inst{Op: op, Ra: 1})
		}
	}
	cases := []struct {
		name   string
		prog   func(b *program.Builder)
		patch  func(im *program.Image) // edits the decoded image after Build
		budget uint64
		badPC  bool   // Record must fail with ErrBadPC
		badOp  bool   // Record must fail with the unimplemented-op error
		wantN  uint64 // instructions recorded, for a clean recording
		check  func(t *testing.T, st *Stream)
	}{
		{name: "jump out of the image", budget: 10, badPC: true,
			prog: func(b *program.Builder) {
				b.LoadConst(1, 0x9000)
				b.JumpReg(1)
				b.Halt()
			}},
		{name: "misaligned jr target", budget: 10, badPC: true,
			prog: func(b *program.Builder) {
				b.LoadAddr(1, "t")
				b.ALUI(isa.OpAddI, 1, 1, 2)
				b.JumpReg(1)
				b.Label("t")
				b.Halt()
			}},
		{name: "entry outside the image", budget: 1, badPC: true,
			prog:  func(b *program.Builder) { b.Halt() },
			patch: func(im *program.Image) { im.Entry = im.End() }},
		{name: "invalid opcode", budget: 10, badOp: true,
			prog: func(b *program.Builder) {
				b.Nop()
				b.Nop()
				b.Halt()
			},
			// Build rejects an invalid opcode, so plant one in the
			// decoded image the emulator executes.
			patch: func(im *program.Image) { im.Insts()[1].Op = isa.Op(200) }},
		{name: "halt inside the budget", budget: 100, wantN: 4,
			prog: func(b *program.Builder) {
				b.ALUI(isa.OpAddI, 1, 0, 1)
				b.Branch(isa.OpBne, 1, 0, "h")
				b.Nop()
				b.Label("h")
				b.Store(1, 0, 0x40)
				b.Halt()
				b.Nop()
			},
			check: func(t *testing.T, st *Stream) {
				if st.nbits != 1 || st.taken[0] != 1 {
					t.Errorf("taken bits %v (%d), want the one taken bne", st.taken, st.nbits)
				}
			}},
		{name: "budget 0", budget: 0, wantN: 0,
			prog: func(b *program.Builder) { b.Halt() }},
		{name: "budget 1", budget: 1, wantN: 1,
			prog: func(b *program.Builder) {
				b.LoadConst(1, 0x2000)
				b.JumpReg(1)
			}},
		{name: "budget 1 on a halt", budget: 1, wantN: 1,
			prog: func(b *program.Builder) { b.Halt() }},
		{name: "jr completes a sync interval", budget: 2*SyncInterval + 3, wantN: 2*SyncInterval + 3,
			prog: syncLoop(isa.OpJr), check: syncAt(SyncInterval)},
		{name: "jalr completes a sync interval", budget: 2*SyncInterval + 3, wantN: 2*SyncInterval + 3,
			prog: syncLoop(isa.OpJalr), check: syncAt(SyncInterval)},
		{name: "budget ends on the jr that completes a sync interval", budget: SyncInterval, wantN: SyncInterval,
			prog: syncLoop(isa.OpJr), check: syncAt(SyncInterval)},
		{name: "jalr through the link register", budget: 100, wantN: 5,
			prog: func(b *program.Builder) {
				b.LoadAddr(isa.RegLink, "fn")
				b.CallReg(isa.RegLink) // jumps to fn, not to the link it writes
				b.Halt()
				b.Label("fn")
				b.Ret() // returns to the halt through the fresh link
			},
			check: func(t *testing.T, st *Stream) {
				fn, _ := st.im.Lookup("fn")
				d := replayAll(t, st.Replay())
				if d[2].NextPC != fn || d[3].NextPC != d[2].PC+isa.WordSize {
					t.Errorf("jalr -> 0x%x, ret -> 0x%x; want 0x%x and 0x%x",
						d[2].NextPC, d[3].NextPC, fn, d[2].PC+isa.WordSize)
				}
			}},
		{name: "writes to r0", budget: 100, wantN: 5,
			prog: func(b *program.Builder) {
				b.ALUI(isa.OpAddI, 0, 0, 0x40) // discarded
				b.Load(0, 0, 0x80)             // address from r0 = 0, value discarded
				b.Branch(isa.OpBeq, 0, 1, "h") // r0 == r1 == 0: taken
				b.Nop()
				b.Label("h")
				b.Store(0, 0, 0x10)
				b.Halt()
			},
			check: func(t *testing.T, st *Stream) {
				d := replayAll(t, st.Replay())
				if d[1].MemAddr != 0x80 || !d[2].Taken || d[3].MemAddr != 0x10 {
					t.Errorf("r0 not zero: load at 0x%x, beq taken %v, store at 0x%x", d[1].MemAddr, d[2].Taken, d[3].MemAddr)
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := program.NewBuilder(0x1000)
			c.prog(b)
			im, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			if c.patch != nil {
				c.patch(im)
			}
			got, gotErr := Record(im, c.budget)
			want, wantErr := RecordOracle(im, c.budget)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("Record error %v, oracle error %v", gotErr, wantErr)
			}
			if c.badPC != errors.Is(gotErr, ErrBadPC) {
				t.Fatalf("error %v: ErrBadPC %v, want %v", gotErr, !c.badPC, c.badPC)
			}
			if c.badOp != (gotErr != nil && strings.Contains(gotErr.Error(), "unimplemented op")) {
				t.Fatalf("error %v: unimplemented op %v, want %v", gotErr, !c.badOp, c.badOp)
			}
			if gotErr != nil {
				if got != nil {
					t.Errorf("stream returned with error %v", gotErr)
				}
				return
			}
			if err := StreamDiff(got, want); err != nil {
				t.Fatal(err)
			}
			if got.Len() != c.wantN {
				t.Errorf("recorded %d instructions, want %d", got.Len(), c.wantN)
			}
			if c.check != nil {
				c.check(t, got)
			}
		})
	}
}

// syncAt returns a check that the stream's sync index has an entry at
// exactly position pos.
func syncAt(pos uint64) func(t *testing.T, st *Stream) {
	return func(t *testing.T, st *Stream) {
		for _, e := range st.sync {
			if e.seq == pos {
				return
			}
		}
		t.Errorf("no sync entry at %d: %+v", pos, st.sync)
	}
}
