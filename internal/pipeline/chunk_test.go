package pipeline

import (
	"errors"
	"runtime"
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/trace"
)

// TestChunkedRunContract pins the chunked-run state machine: RunTrace
// and Finish before StartChunked report ErrNotChunked; StartChunked
// claims the simulator's single run (a second Start or any Run* entry
// point returns ErrRunTwice); RunTrace after budget exhaustion keeps
// reporting done without error; Finish seals the run so further Finish
// calls report ErrNotChunked.
func TestChunkedRunContract(t *testing.T) {
	im := loopImage(t, 50)
	st, err := emulator.Record(im, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	sim := MustNew(im, DefaultConfig())
	if _, err := sim.RunTrace(nil, nil); !errors.Is(err, ErrNotChunked) {
		t.Errorf("RunTrace before Start = %v, want ErrNotChunked", err)
	}
	if _, err := sim.Finish(); !errors.Is(err, ErrNotChunked) {
		t.Errorf("Finish before Start = %v, want ErrNotChunked", err)
	}

	if err := sim.StartChunked(100); err != nil {
		t.Fatal(err)
	}
	if err := sim.StartChunked(100); !errors.Is(err, ErrRunTwice) {
		t.Errorf("second StartChunked = %v, want ErrRunTwice", err)
	}
	if _, err := sim.Run(100); !errors.Is(err, ErrRunTwice) {
		t.Errorf("Run after StartChunked = %v, want ErrRunTwice", err)
	}
	if _, err := sim.RunStream(st, 100); !errors.Is(err, ErrRunTwice) {
		t.Errorf("RunStream after StartChunked = %v, want ErrRunTwice", err)
	}

	cr := st.DecodeChunks(0)
	defer cr.Close()
	chunk, ok := cr.Next()
	if !ok {
		t.Fatal("no chunk")
	}
	seg := trace.NewChunkSegmenter(DefaultConfig().Select)
	done := false
	for len(chunk) > 0 && !done {
		used, tr, dyns := seg.Feed(chunk)
		if tr == nil {
			break
		}
		chunk = chunk[used:]
		if done, err = sim.RunTrace(tr, dyns); err != nil {
			t.Fatal(err)
		}
	}
	if !done {
		t.Fatal("a 100-instruction budget survived a full default chunk")
	}
	// Feeding past exhaustion is allowed and inert.
	_, tr, dyns := seg.Feed(chunk)
	if tr == nil {
		t.Fatal("chunk ran out of traces before the budget")
	}
	if done, err := sim.RunTrace(tr, dyns); err != nil || !done {
		t.Errorf("RunTrace after exhaustion = (%v, %v), want (true, nil)", done, err)
	}

	if _, err := sim.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Finish(); !errors.Is(err, ErrNotChunked) {
		t.Errorf("second Finish = %v, want ErrNotChunked", err)
	}
}

// TestChunkLoopSteadyStateAllocs checks the chunked hot loop is
// allocation-free once warm: decoding chunks, segmenting them and
// feeding the traces through RunTrace must reuse the free-listed chunk
// buffers and the simulator's own scratch, with zero allocations per
// pass attributable to the loop.
// Trace-store slab growth is the one legitimate allocator on this path,
// so the measured simulator uses a trace cache small enough to be fully
// populated during warming.
func TestChunkLoopSteadyStateAllocs(t *testing.T) {
	im := loopImage(t, 2_000) // ~14 instrs/iteration, outruns the budget
	const budget = 20_000
	st, err := emulator.Record(im, budget)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := MustNew(im, DefaultConfig().WithTraceCache(16)).RunStream(st, budget); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run() // warm the free list, store slabs, and the intern table
	}
	before := emulator.ChunkBufAllocs()
	const runs = 10
	for i := 0; i < runs; i++ {
		run()
		runtime.GC() // a collection must not empty the free list
	}
	if got := emulator.ChunkBufAllocs() - before; got != 0 {
		t.Errorf("steady-state chunk loop allocated %d chunk buffers over %d runs, want 0", got, runs)
	}
}
