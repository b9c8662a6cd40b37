// Package pipelinetest holds the live-emulation oracle that the
// equivalence tests compare every recorded-stream run path against.
package pipelinetest

import (
	"tracepre/internal/emulator"
	"tracepre/internal/pipeline"
	"tracepre/internal/program"
	"tracepre/internal/trace"
)

// Live simulates cfg for up to budget committed instructions of im
// straight from the functional emulator: each committed instruction
// goes through a Builder-backed trace.Segmenter and every completed
// trace is stepped with RunTrace. It shares no stream, chunk or
// ChunkSegmenter code with the replay paths. A final partial trace is
// dropped, as on every run path.
func Live(im *program.Image, cfg pipeline.Config, budget uint64) (pipeline.Result, error) {
	sim, err := pipeline.New(im, cfg)
	if err != nil {
		return pipeline.Result{}, err
	}
	if err := sim.StartChunked(budget); err != nil {
		return pipeline.Result{}, err
	}
	seg := trace.NewSegmenter(cfg.Select)
	var dyns []emulator.Dyn
	var runErr error
	_, err = emulator.New(im).Run(budget, func(d emulator.Dyn) bool {
		dyns = append(dyns, d)
		tr := seg.PushBorrow(d)
		if tr == nil {
			return true
		}
		var done bool
		done, runErr = sim.RunTrace(tr, dyns)
		dyns = dyns[:0]
		return !done && runErr == nil
	})
	if err != nil {
		return pipeline.Result{}, err
	}
	if runErr != nil {
		return pipeline.Result{}, runErr
	}
	return sim.Finish()
}
