package trace

import (
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/workload"
)

// chunkRecord records one benchmark stream for the chunk-segmentation
// tests.
func chunkRecord(t *testing.T, name string, budget uint64) *emulator.Stream {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	im, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := emulator.Record(im, budget)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// feedAll drives a ChunkSegmenter over the stream in chunkLen-sized
// chunks and returns clones of every completed trace with copies of
// their dyn slices.
func feedAll(t *testing.T, st *emulator.Stream, cfg SelectConfig, chunkLen int) (traces []*Trace, dyns [][]emulator.Dyn) {
	t.Helper()
	cs := NewChunkSegmenter(cfg)
	cr := st.DecodeChunks(chunkLen)
	defer cr.Close()
	for {
		chunk, ok := cr.Next()
		if !ok {
			break
		}
		for len(chunk) > 0 {
			used, tr, ds := cs.Feed(chunk)
			chunk = chunk[used:]
			if tr == nil {
				break
			}
			traces = append(traces, tr.Clone())
			dyns = append(dyns, append([]emulator.Dyn(nil), ds...))
		}
	}
	if err := cr.Err(); err != nil {
		t.Fatal(err)
	}
	return traces, dyns
}

// TestChunkSegmenterMatchesSegmenter drives the chunked segmenter and
// the Builder-backed Segmenter over the same recordings and requires
// the identical trace sequence — including the dyn slices — at chunk
// sizes chosen to land boundaries inside traces (1 splits every trace;
// 17 and 1000 are coprime to typical trace lengths; DefaultChunkLen is
// the production size).
func TestChunkSegmenterMatchesSegmenter(t *testing.T) {
	const budget = 30_000
	cfgs := []SelectConfig{
		DefaultSelectConfig(),
		{MaxLen: 8, AlignMod: 4},
		{MaxLen: 16, AlignMod: 2},
	}
	for _, name := range []string{"gcc", "compress"} {
		st := chunkRecord(t, name, budget)
		for _, cfg := range cfgs {
			// Reference sequence from the Segmenter over a replay.
			var wantTr []*Trace
			var wantDy [][]emulator.Dyn
			seg := NewSegmenter(cfg)
			rp := st.Replay()
			var pending []emulator.Dyn
			for {
				d, ok := rp.Next()
				if !ok {
					break
				}
				pending = append(pending, d)
				if tr := seg.Push(d); tr != nil {
					wantTr = append(wantTr, tr)
					wantDy = append(wantDy, pending)
					pending = nil
				}
			}
			if err := rp.Err(); err != nil {
				t.Fatal(err)
			}
			for _, chunkLen := range []int{1, 17, 1000, emulator.DefaultChunkLen} {
				gotTr, gotDy := feedAll(t, st, cfg, chunkLen)
				if len(gotTr) != len(wantTr) {
					t.Fatalf("%s cfg=%+v chunkLen=%d: %d traces, want %d",
						name, cfg, chunkLen, len(gotTr), len(wantTr))
				}
				for i := range wantTr {
					if !tracesEqual(gotTr[i], wantTr[i]) {
						t.Fatalf("%s cfg=%+v chunkLen=%d: trace %d differs:\nchunked   %v\nsegmenter %v",
							name, cfg, chunkLen, i, gotTr[i], wantTr[i])
					}
					if len(gotDy[i]) != len(wantDy[i]) {
						t.Fatalf("%s cfg=%+v chunkLen=%d: trace %d dyns %d, want %d",
							name, cfg, chunkLen, i, len(gotDy[i]), len(wantDy[i]))
					}
					for j := range wantDy[i] {
						if gotDy[i][j] != wantDy[i][j] {
							t.Fatalf("%s cfg=%+v chunkLen=%d: trace %d dyn %d differs",
								name, cfg, chunkLen, i, j)
						}
					}
				}
			}
		}
	}
}

// tracesEqual compares every selection-relevant field of two traces.
func tracesEqual(a, b *Trace) bool {
	if len(a.PCs) != len(b.PCs) || a.Succ != b.Succ || a.BrMask != b.BrMask ||
		a.NumBr != b.NumBr || a.Flags != b.Flags ||
		a.EndsInReturn != b.EndsInReturn || a.EndsInIndirect != b.EndsInIndirect ||
		a.EndsInHalt != b.EndsInHalt {
		return false
	}
	for i := range a.PCs {
		if a.PCs[i] != b.PCs[i] || a.Insts[i] != b.Insts[i] {
			return false
		}
	}
	return true
}

// TestChunkSegmenterPending checks partial-trace state across chunk
// boundaries: a one-instruction chunk stream must report Pending
// between calls and produce a spanning trace staged from multiple
// chunks.
func TestChunkSegmenterPending(t *testing.T) {
	st := chunkRecord(t, "li", 1_000)
	cs := NewChunkSegmenter(DefaultSelectConfig())
	cr := st.DecodeChunks(1)
	defer cr.Close()
	sawPending := false
	traces := 0
	for {
		chunk, ok := cr.Next()
		if !ok {
			break
		}
		used, tr, _ := cs.Feed(chunk)
		if used != len(chunk) {
			t.Fatalf("Feed consumed %d of a %d-instruction chunk without completing a trace", used, len(chunk))
		}
		if tr == nil && cs.Pending() > 0 {
			sawPending = true
		}
		if tr != nil {
			traces++
			if cs.Pending() != 0 {
				t.Fatalf("Pending %d after a completed trace", cs.Pending())
			}
		}
	}
	if err := cr.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawPending {
		t.Error("no partial trace ever spanned a chunk boundary")
	}
	if traces == 0 {
		t.Error("no traces produced")
	}
}

// TestChunkSegmenterReset pins the resume-at-skip contract: after
// Reset, a segmenter holding a partial trace produces exactly the trace
// sequence a fresh segmenter produces from the resume point — sampled
// runs skip stream regions without segmenting them and must not stitch
// pre-skip instructions onto post-skip ones.
func TestChunkSegmenterReset(t *testing.T) {
	st := chunkRecord(t, "gcc", 50_000)
	cfg := DefaultSelectConfig()

	// Decode the whole stream into one flat slice for offset slicing.
	var all []emulator.Dyn
	cr := st.DecodeChunks(0)
	for {
		chunk, ok := cr.Next()
		if !ok {
			break
		}
		all = append(all, chunk...)
	}
	if err := cr.Err(); err != nil {
		t.Fatal(err)
	}
	cr.Close()

	segment := func(cs *ChunkSegmenter, in []emulator.Dyn) []*Trace {
		var out []*Trace
		for len(in) > 0 {
			used, tr, _ := cs.Feed(in)
			in = in[used:]
			if tr == nil {
				break
			}
			out = append(out, tr.Clone())
		}
		return out
	}

	for _, skipTo := range []int{20_001, 20_007, 33_333} {
		used := NewChunkSegmenter(cfg)
		segment(used, all[:1_000]) // leave a partial trace pending with high likelihood
		if used.Pending() == 0 {
			// Feed single instructions until a partial is pending so the
			// reset has something to drop.
			for i := 1_000; i < len(all) && used.Pending() == 0; i++ {
				used.Feed(all[i : i+1])
			}
		}
		used.Reset()
		if used.Pending() != 0 {
			t.Fatalf("Pending = %d after Reset, want 0", used.Pending())
		}
		got := segment(used, all[skipTo:])
		want := segment(NewChunkSegmenter(cfg), all[skipTo:])
		if len(got) != len(want) {
			t.Fatalf("skipTo %d: %d traces after Reset, fresh segmenter %d", skipTo, len(got), len(want))
		}
		for i := range got {
			if got[i].ID() != want[i].ID() || got[i].Len() != want[i].Len() {
				t.Fatalf("skipTo %d: trace %d differs after Reset: %v vs %v", skipTo, i, got[i].ID(), want[i].ID())
			}
		}
	}
}
