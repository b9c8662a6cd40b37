package pipeline_test

import (
	"reflect"
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/pipeline"
	"tracepre/internal/pipeline/pipelinetest"
	"tracepre/internal/trace"
)

// TestRunMatchesLiveEmulation requires Run — a recording replayed
// through RunStream — to equal the live-emulation oracle's full
// Result, with and without the timing backend.
func TestRunMatchesLiveEmulation(t *testing.T) {
	im := pipeline.MemLoopImage(t, 200)
	const budget = 5000
	for _, timing := range []bool{false, true} {
		cfg := pipeline.DefaultConfig().WithTraceCache(64).WithPrecon(64)
		cfg.FullTiming = timing
		want, err := pipelinetest.Live(im, cfg, budget)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pipeline.MustNew(im, cfg).Run(budget)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("timing=%v: Run differs from live emulation:\nrun  %+v\nlive %+v", timing, got, want)
		}
	}
}

// TestChunkedRunMatchesLiveEmulation drives StartChunked/RunTrace/Finish
// by hand over a recorded stream, segmented by a ChunkSegmenter, and
// requires the full Result to equal the live-emulation oracle's —
// including the budget-tail case where the stream outruns the budget
// and a trace completes past the remaining headroom.
func TestChunkedRunMatchesLiveEmulation(t *testing.T) {
	im := pipeline.MemLoopImage(t, 400)
	st, err := emulator.Record(im, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []uint64{10_000, 7_777, 100} {
		cfg := pipeline.DefaultConfig().WithTraceCache(64).WithPrecon(64)
		want, err := pipelinetest.Live(im, cfg, budget)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunkLen := range []int{1, 33, emulator.DefaultChunkLen} {
			sim := pipeline.MustNew(im, cfg)
			if err := sim.StartChunked(budget); err != nil {
				t.Fatal(err)
			}
			seg := trace.NewChunkSegmenter(cfg.Select)
			cr := st.DecodeChunks(chunkLen)
			for done := false; !done; {
				chunk, ok := cr.Next()
				if !ok {
					break
				}
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
			}
			if err := cr.Err(); err != nil {
				t.Fatal(err)
			}
			cr.Close()
			got, err := sim.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("budget=%d chunkLen=%d: chunked result differs:\nchunked %+v\nlive    %+v",
					budget, chunkLen, got, want)
			}
		}
	}
}
