package emulator

import (
	"runtime"
	"testing"

	"tracepre/internal/workload"
)

// recordBench records one benchmark stream for the chunk tests.
func recordBench(t *testing.T, name string, budget uint64) *Stream {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	im, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Record(im, budget)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestChunkedReplayerBitIdentical checks that the concatenation of
// DecodeChunks chunks equals the plain Replayer sequence, for chunk
// sizes that tile the stream exactly, leave a remainder, degenerate to
// one instruction, and exceed the whole stream.
func TestChunkedReplayerBitIdentical(t *testing.T) {
	const budget = 20_000
	st := recordBench(t, "gcc", budget)

	var want []Dyn
	rp := st.Replay()
	for {
		d, ok := rp.Next()
		if !ok {
			break
		}
		want = append(want, d)
	}
	if err := rp.Err(); err != nil {
		t.Fatal(err)
	}

	for _, chunkLen := range []int{1, 7, 1000, DefaultChunkLen, int(budget) + 1} {
		cr := st.DecodeChunks(chunkLen)
		var got []Dyn
		for {
			chunk, ok := cr.Next()
			if !ok {
				break
			}
			if len(chunk) > chunkLen {
				t.Fatalf("chunkLen %d: oversized chunk of %d", chunkLen, len(chunk))
			}
			got = append(got, chunk...)
		}
		if err := cr.Err(); err != nil {
			t.Fatalf("chunkLen %d: %v", chunkLen, err)
		}
		cr.Close()
		if len(got) != len(want) {
			t.Fatalf("chunkLen %d: %d instrs, want %d", chunkLen, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunkLen %d: instr %d differs:\nchunked %+v\nreplay  %+v",
					chunkLen, i, got[i], want[i])
			}
		}
	}
}

// TestChunkBufPoolSteadyState checks that once the free list is warm,
// repeated decode passes reuse the double buffer instead of allocating
// fresh chunk scratch: ChunkBufAllocs must not move across a run of
// full decode cycles, whatever the garbage collector does meanwhile.
func TestChunkBufPoolSteadyState(t *testing.T) {
	st := recordBench(t, "compress", 5_000)
	drain := func() {
		cr := st.DecodeChunks(0)
		for {
			if _, ok := cr.Next(); !ok {
				break
			}
		}
		if err := cr.Err(); err != nil {
			t.Fatal(err)
		}
		cr.Close()
	}

	for i := 0; i < 3; i++ {
		drain() // warm the free list
	}
	before := ChunkBufAllocs()
	for i := 0; i < 10; i++ {
		drain()
		runtime.GC() // a collection must not empty the free list
	}
	if got := ChunkBufAllocs() - before; got != 0 {
		t.Errorf("steady-state decode allocated %d chunk buffers, want 0", got)
	}
}

// TestChunkedReplayerEarlyClose abandons a decode mid-stream: Close
// must stop the decode goroutine, recycle the buffers, and be
// idempotent; Next after Close reports end of stream.
func TestChunkedReplayerEarlyClose(t *testing.T) {
	st := recordBench(t, "go", 20_000)
	cr := st.DecodeChunks(64)
	if _, ok := cr.Next(); !ok {
		t.Fatal("no first chunk")
	}
	cr.Close()
	cr.Close() // idempotent
	if _, ok := cr.Next(); ok {
		t.Error("Next returned a chunk after Close")
	}
	if err := cr.Err(); err != nil {
		t.Errorf("abandoned decode reported error: %v", err)
	}

	// Close without ever calling Next: the decoder may be blocked
	// handing over the first chunk.
	cr = st.DecodeChunks(64)
	cr.Close()
}

// TestChunkedReplayerError corrupts a recording and checks the decode
// error surfaces through Err after the chunk iteration ends, exactly as
// Replayer.Err would report it.
func TestChunkedReplayerError(t *testing.T) {
	st := recordBench(t, "li", 20_000)
	// Truncate the aux varints so an indirect target or memory address
	// decode runs off the end mid-stream.
	bad := *st
	bad.aux = bad.aux[:1]

	cr := bad.DecodeChunks(0)
	defer cr.Close()
	n := 0
	for {
		chunk, ok := cr.Next()
		if !ok {
			break
		}
		n += len(chunk)
	}
	if err := cr.Err(); err == nil {
		t.Fatal("corrupt stream decoded without error")
	}
	if n >= int(st.Len()) {
		t.Errorf("decoded %d instrs from a truncated stream of %d", n, st.Len())
	}
}
