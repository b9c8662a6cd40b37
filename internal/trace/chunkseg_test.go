package trace

import (
	"fmt"
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/workload"
)

// chunkRecord records one benchmark stream for the chunk-segmentation
// tests.
func chunkRecord(t testing.TB, name string, budget uint64) *emulator.Stream {
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

// chunkSelects are the selection rules the chunk-segmentation
// equivalence checks run under: the default and two that end traces
// early.
var chunkSelects = []SelectConfig{
	DefaultSelectConfig(),
	{MaxLen: 8, AlignMod: 4},
	{MaxLen: 16, AlignMod: 2},
}

// segmenterOracle segments a replay of the stream with the
// Builder-backed Segmenter: the reference trace sequence, with each
// trace's dyns.
func segmenterOracle(t testing.TB, st *emulator.Stream, cfg SelectConfig) (traces []*Trace, dyns [][]emulator.Dyn) {
	t.Helper()
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
			traces = append(traces, tr)
			dyns = append(dyns, pending)
			pending = nil
		}
	}
	if err := rp.Err(); err != nil {
		t.Fatal(err)
	}
	return traces, dyns
}

// sameTraces fails unless the got sequence equals the oracle's, trace
// for trace and dyn for dyn.
func sameTraces(t testing.TB, label string, gotTr []*Trace, gotDy [][]emulator.Dyn, wantTr []*Trace, wantDy [][]emulator.Dyn) {
	t.Helper()
	if len(gotTr) != len(wantTr) {
		t.Fatalf("%s: %d traces, want %d", label, len(gotTr), len(wantTr))
	}
	for i := range wantTr {
		if !tracesEqual(gotTr[i], wantTr[i]) {
			t.Fatalf("%s: trace %d differs:\nchunked   %v\nsegmenter %v", label, i, gotTr[i], wantTr[i])
		}
		if len(gotDy[i]) != len(wantDy[i]) {
			t.Fatalf("%s: trace %d dyns %d, want %d", label, i, len(gotDy[i]), len(wantDy[i]))
		}
		for j := range wantDy[i] {
			if gotDy[i][j] != wantDy[i][j] {
				t.Fatalf("%s: trace %d dyn %d differs", label, i, j)
			}
		}
	}
}

// TestChunkSegmenterMatchesSegmenter drives the chunked segmenter and
// the Builder-backed Segmenter over the same recordings and requires
// the identical trace sequence — including the dyn slices — at chunk
// sizes chosen to land boundaries inside traces (1 splits every trace;
// 17 and 1000 are coprime to typical trace lengths; DefaultChunkLen is
// the production size).
func TestChunkSegmenterMatchesSegmenter(t *testing.T) {
	const budget = 30_000
	for _, name := range []string{"gcc", "compress"} {
		st := chunkRecord(t, name, budget)
		for _, cfg := range chunkSelects {
			wantTr, wantDy := segmenterOracle(t, st, cfg)
			for _, chunkLen := range []int{1, 17, 1000, emulator.DefaultChunkLen} {
				gotTr, gotDy := feedAll(t, st, cfg, chunkLen)
				sameTraces(t, fmt.Sprintf("%s cfg=%+v chunkLen=%d", name, cfg, chunkLen),
					gotTr, gotDy, wantTr, wantDy)
			}
		}
	}
}

// FuzzChunkSegmenter splits a recorded stream into arbitrary chunks —
// each input byte is one chunk length of 1..256 instructions, cycled
// until the stream is consumed; no bytes means one chunk — and
// requires the chunked segmenter to produce exactly the Builder-backed
// Segmenter's traces and dyns under the selection rules sel picks.
// Every chunk is copied into one reused buffer, so a chunk's backing
// is overwritten once the next chunk arrives, as the decoder's pool
// recycles it.
func FuzzChunkSegmenter(f *testing.F) {
	st := chunkRecord(f, "gcc", 20_000)
	all := decodeAll(f, st)
	type oracle struct {
		traces []*Trace
		dyns   [][]emulator.Dyn
	}
	oracles := make([]oracle, len(chunkSelects))
	for i, cfg := range chunkSelects {
		oracles[i].traces, oracles[i].dyns = segmenterOracle(f, st, cfg)
	}
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0}, uint8(0))
	f.Add([]byte{16, 2, 255}, uint8(1))
	f.Add([]byte{7, 0, 0, 30, 15}, uint8(2))
	f.Fuzz(func(t *testing.T, lens []byte, sel uint8) {
		i := int(sel) % len(chunkSelects)
		cs := NewChunkSegmenter(chunkSelects[i])
		var (
			buf   []emulator.Dyn
			gotTr []*Trace
			gotDy [][]emulator.Dyn
		)
		for k, rest := 0, all; len(rest) > 0; k++ {
			n := len(rest)
			if len(lens) > 0 {
				n = min(n, int(lens[k%len(lens)])+1)
			}
			buf = append(buf[:0], rest[:n]...)
			rest = rest[n:]
			for chunk := buf; len(chunk) > 0; {
				used, tr, ds := cs.Feed(chunk)
				chunk = chunk[used:]
				if tr == nil {
					break
				}
				gotTr = append(gotTr, tr.Clone())
				gotDy = append(gotDy, append([]emulator.Dyn(nil), ds...))
			}
		}
		sameTraces(t, fmt.Sprintf("cfg=%+v lens=%v", chunkSelects[i], lens),
			gotTr, gotDy, oracles[i].traces, oracles[i].dyns)
	})
}

// TestWalkStops: Walk lends traces in stream order and stops as soon
// as fn returns false.
func TestWalkStops(t *testing.T) {
	st := chunkRecord(t, "li", 5_000)
	wantTr, _ := segmenterOracle(t, st, DefaultSelectConfig())
	var got []*Trace
	err := Walk(st, DefaultSelectConfig(), func(tr *Trace, _ []emulator.Dyn) bool {
		got = append(got, tr.Clone())
		return len(got) < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("Walk called fn %d times after it returned false at 3", len(got))
	}
	for i := range got {
		if !tracesEqual(got[i], wantTr[i]) {
			t.Fatalf("trace %d: %v, want %v", i, got[i], wantTr[i])
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

	all := decodeAll(t, st)

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

// decodeAll decodes the whole stream into one flat slice.
func decodeAll(t testing.TB, st *emulator.Stream) []emulator.Dyn {
	t.Helper()
	var all []emulator.Dyn
	cr := st.DecodeChunks(0)
	defer cr.Close()
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
	return all
}
