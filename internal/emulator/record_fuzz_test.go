package emulator_test

import (
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/harness"
	"tracepre/internal/workload"
)

// fuzzSeeds bounds the generator seeds FuzzRecord visits: the harness
// caches every image it generates, so an unbounded seed would grow the
// fuzzing process without end.
const fuzzSeeds = 64

// FuzzRecord records a benchmark image — any profile, a perturbed
// generator seed, a budget of 0 to 300k instructions — and requires
//   - the stream to equal the record oracle's byte for byte;
//   - Replay to equal Emulator.Run Dyn for Dyn, Seq included;
//   - ReplayFrom at a fuzzed position to equal the linear replay's tail.
//
// The seed corpus runs under go test; `make fuzz` explores.
func FuzzRecord(f *testing.F) {
	f.Add(uint8(0), int64(0), uint32(0), uint32(0))
	f.Add(uint8(1), int64(0), uint32(1), uint32(1))
	f.Add(uint8(2), int64(3), uint32(70_000), uint32(65_536))
	f.Add(uint8(3), int64(1), uint32(300_000), uint32(200_000))
	f.Add(uint8(7), int64(-5), uint32(131_073), uint32(131_072))

	names := workload.Names()
	f.Fuzz(func(t *testing.T, bench uint8, seed int64, budget, seek uint32) {
		name := names[int(bench)%len(names)]
		seed %= fuzzSeeds
		n := uint64(budget % 300_001)
		im, err := harness.ImageSeed(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		st, err := emulator.Record(im, n)
		want, wantErr := emulator.RecordOracle(im, n)
		if err != nil || wantErr != nil {
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s seed %d at %d: Record error %v, oracle error %v", name, seed, n, err, wantErr)
			}
			return
		}
		if err := emulator.StreamDiff(st, want); err != nil {
			t.Fatalf("%s seed %d at %d: %v", name, seed, n, err)
		}

		rp := st.Replay()
		var d emulator.Dyn
		ran, err := emulator.New(im).Run(n, func(e emulator.Dyn) bool {
			if !rp.NextInto(&d) || d != e {
				t.Fatalf("%s seed %d: replay %+v (err %v), emulator %+v", name, seed, d, rp.Err(), e)
			}
			return true
		})
		if err != nil || ran != st.Len() || rp.NextInto(&d) || rp.Err() != nil {
			t.Fatalf("%s seed %d: emulator ran %d (err %v), stream has %d, replay err %v",
				name, seed, ran, err, st.Len(), rp.Err())
		}

		k := uint64(seek) % (st.Len() + 1)
		linear, from := st.Replay(), st.ReplayFrom(k)
		for i := uint64(0); i < k; i++ {
			linear.NextInto(&d)
		}
		var e emulator.Dyn
		for linear.NextInto(&d) {
			if !from.NextInto(&e) || d != e {
				t.Fatalf("%s seed %d: ReplayFrom(%d) gives %+v (err %v), linear %+v", name, seed, k, e, from.Err(), d)
			}
		}
		if from.NextInto(&e) || from.Err() != nil || linear.Err() != nil {
			t.Fatalf("%s seed %d: ReplayFrom(%d) runs past the linear tail (err %v, %v)", name, seed, k, from.Err(), linear.Err())
		}
	})
}
