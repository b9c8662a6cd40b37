package emulator

import (
	"testing"
	"unsafe"

	"tracepre/internal/isa"
)

// syncBenches are the streams the seek tests record: a large working
// set (gcc), an irregular one (go) and a loop-dominated one (compress).
var syncBenches = []string{"gcc", "go", "compress"}

// syncTestBudget spans several sync intervals.
const syncTestBudget = 3*SyncInterval + SyncInterval/2

// replayAll decodes a Replayer to its end and fails on a decode error.
func replayAll(t testing.TB, rp *Replayer) []Dyn {
	t.Helper()
	var out []Dyn
	var d Dyn
	for rp.NextInto(&d) {
		out = append(out, d)
	}
	if err := rp.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameTail fails unless got equals the linear replay's records from
// position pos on, Dyn for Dyn.
func sameTail(t *testing.T, label string, got, linear []Dyn, pos uint64) {
	t.Helper()
	want := linear[pos:]
	if len(got) != len(want) {
		t.Fatalf("%s from %d: %d instrs, linear tail has %d", label, pos, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s from %d: instr %d differs:\nseek   %+v\nlinear %+v", label, pos, i, got[i], want[i])
		}
	}
}

// TestSyncIndex checks the index the Recorder builds: an entry at the
// stream start, then one at the first universal trace start at or
// after each multiple of SyncInterval — each at position 0 or right
// after an indirect jump, return or halt. Its size is one entry per
// interval; on the benchmark streams (gcc, go) that is under 1% of the
// encoding. compress encodes so densely (~0.02 B/instr) that the same
// index is ~3% of it.
func TestSyncIndex(t *testing.T) {
	for _, name := range syncBenches {
		t.Run(name, func(t *testing.T) {
			st := recordBench(t, name, syncTestBudget)
			linear := replayAll(t, st.Replay())
			if len(st.sync) < 4 {
				t.Fatalf("%d sync entries over %d instructions, want at least 4", len(st.sync), st.Len())
			}
			for i, e := range st.sync {
				if i == 0 {
					if e.seq != 0 {
						t.Fatalf("first entry at %d, want 0", e.seq)
					}
					continue
				}
				if e.seq < uint64(i)*SyncInterval || e.seq <= st.sync[i-1].seq {
					t.Fatalf("entry %d at %d: not past %d or not after entry %d", i, e.seq, uint64(i)*SyncInterval, i-1)
				}
				if e.seq < st.Len() && e.pc != linear[e.seq].PC {
					t.Fatalf("entry %d at %d: pc 0x%x, stream has 0x%x", i, e.seq, e.pc, linear[e.seq].PC)
				}
				switch op := linear[e.seq-1].Inst.Op; op {
				case isa.OpJr, isa.OpJalr, isa.OpHalt:
				default:
					t.Fatalf("entry %d at %d follows %v, not an indirect jump", i, e.seq, op)
				}
			}
			if want := int(st.Len()/SyncInterval) + 1; len(st.sync) > want {
				t.Errorf("%d sync entries over %d instructions, want at most %d", len(st.sync), st.Len(), want)
			}
			idx := len(st.sync) * int(unsafe.Sizeof(syncEntry{}))
			if frac := float64(idx) / float64(st.Bytes()); name != "compress" && frac > 0.01 {
				t.Errorf("sync index %d B is %.2f%% of %d stream bytes, want <= 1%%", idx, 100*frac, st.Bytes())
			}
		})
	}
}

// TestSeekMatchesLinear requires decoding from every sync entry to
// equal the linear replay's tail, Seq included (by ChunkedReplayer
// from one entry past the start). SyncBefore must find each entry from
// anywhere in its interval, and a seek between entries decodes the
// gap.
func TestSeekMatchesLinear(t *testing.T) {
	for _, name := range syncBenches {
		t.Run(name, func(t *testing.T) {
			st := recordBench(t, name, syncTestBudget)
			linear := replayAll(t, st.Replay())
			for i, e := range st.sync {
				next := st.Len() + 1
				if i+1 < len(st.sync) {
					next = st.sync[i+1].seq
				}
				for _, n := range []uint64{e.seq, e.seq + 1, (e.seq + next) / 2, next - 1} {
					if got := st.SyncBefore(n); got != e.seq {
						t.Fatalf("SyncBefore(%d) = %d, want entry %d at %d", n, got, i, e.seq)
					}
				}
				sameTail(t, "ReplayFrom", replayAll(t, st.ReplayFrom(e.seq)), linear, e.seq)
			}
			e := st.sync[2]
			sameTail(t, "DecodeChunksFrom", decodeChunksAll(t, st, e.seq, 300), linear, e.seq)
			mid := st.sync[1].seq + 777
			sameTail(t, "ReplayFrom (gap)", replayAll(t, st.ReplayFrom(mid)), linear, mid)
			sameTail(t, "ReplayFrom (end)", replayAll(t, st.ReplayFrom(st.Len())), linear, st.Len())
			if rp := st.ReplayFrom(st.Len() + 1); rp.Err() == nil {
				t.Error("seek past the end reported no error")
			}
		})
	}
}

// decodeChunksAll concatenates DecodeChunksFrom(pos, chunkLen).
func decodeChunksAll(t *testing.T, st *Stream, pos uint64, chunkLen int) []Dyn {
	t.Helper()
	cr := st.DecodeChunksFrom(pos, chunkLen)
	defer cr.Close()
	var out []Dyn
	for {
		chunk, ok := cr.Next()
		if !ok {
			break
		}
		out = append(out, chunk...)
	}
	if err := cr.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDecodedInstrsCountsChunks checks the decode-work counter: a full
// pass adds the stream length, a pass from a sync entry adds its tail.
func TestDecodedInstrsCountsChunks(t *testing.T) {
	st := recordBench(t, "gcc", syncTestBudget)
	before := DecodedInstrs()
	decodeChunksAll(t, st, 0, 0)
	if got := DecodedInstrs() - before; got != st.Len() {
		t.Errorf("full pass counted %d decoded instructions, want %d", got, st.Len())
	}
	pos := st.sync[2].seq
	before = DecodedInstrs()
	decodeChunksAll(t, st, pos, 0)
	if got := DecodedInstrs() - before; got != st.Len()-pos {
		t.Errorf("pass from %d counted %d decoded instructions, want %d", pos, got, st.Len()-pos)
	}
}
