package emulator

import (
	"sync"
	"testing"

	"tracepre/internal/workload"
)

// fuzzStream is the recorded stream FuzzStreamDecode damages: gcc over
// two sync intervals, so the index has entries past the start.
var fuzzStream = sync.OnceValues(func() (*Stream, error) {
	p, err := workload.ByName("gcc")
	if err != nil {
		return nil, err
	}
	im, err := workload.Generate(p)
	if err != nil {
		return nil, err
	}
	return Record(im, 2*SyncInterval+5000)
})

// FuzzStreamDecode damages a recorded stream — truncated taken or aux
// buffers, a corrupted byte, a sync entry pointing anywhere — and
// decodes it from the start, from a seek position by Replayer, and by
// ChunkedReplayer. Decoding must never panic or slice out of range: a
// replayer that stops short of the stream's end reports why through
// Err. The undamaged stream must decode cleanly. The seed corpus runs
// under go test; `make fuzz` explores.
func FuzzStreamDecode(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), byte(0), false, uint64(0), uint64(0), uint64(0), uint32(0), uint64(0))
	f.Add(uint32(100), uint32(0), uint32(0), byte(0), false, uint64(0), uint64(0), uint64(0), uint32(0), uint64(70_000))
	f.Add(uint32(0), uint32(5000), uint32(0), byte(0), true, uint64(0), uint64(0), uint64(0), uint32(0), uint64(0))
	f.Add(uint32(0), uint32(0), uint32(1234), byte(0xff), true, uint64(0), uint64(0), uint64(0), uint32(0), uint64(0))
	f.Add(uint32(0), uint32(0), uint32(0), byte(0), false, uint64(1000), uint64(1<<40), uint64(1<<40), uint32(0x1234), uint64(1500))
	f.Add(uint32(0), uint32(0), uint32(0), byte(0), false, uint64(1<<62), uint64(0), uint64(0), uint32(0), uint64(1<<63))

	f.Fuzz(func(t *testing.T, cutTaken, cutAux, flipAt uint32, flip byte, flipAux bool,
		syncSeq, syncBit, syncAux uint64, syncPC uint32, seek uint64) {
		base, err := fuzzStream()
		if err != nil {
			t.Fatal(err)
		}
		st := *base
		st.taken = append([]byte(nil), base.taken[:len(base.taken)-int(cutTaken%uint32(len(base.taken)+1))]...)
		st.aux = append([]byte(nil), base.aux[:len(base.aux)-int(cutAux%uint32(len(base.aux)+1))]...)
		buf := st.taken
		if flipAux {
			buf = st.aux
		}
		if len(buf) > 0 {
			buf[int(flipAt)%len(buf)] ^= flip
		}
		st.sync = append([]syncEntry(nil), base.sync...)
		if syncSeq != 0 {
			e := syncEntry{seq: syncSeq, bitPos: syncBit, auxPos: syncAux, pc: syncPC}
			i := st.syncIndex(syncSeq) + 1
			st.sync = append(st.sync[:i], append([]syncEntry{e}, st.sync[i:]...)...)
		}
		damaged := len(st.taken) != len(base.taken) || len(st.aux) != len(base.aux) || flip != 0 || syncSeq != 0
		seek %= st.n + 2

		check := func(how string, stopped uint64, err error) {
			if stopped < st.n && err == nil {
				t.Fatalf("%s: stopped at %d of %d with no error", how, stopped, st.n)
			}
			if !damaged && err != nil {
				t.Fatalf("%s: undamaged stream: %v", how, err)
			}
		}
		rp := st.Replay()
		var d Dyn
		for rp.NextInto(&d) {
		}
		check("replay", rp.seq, rp.Err())

		rp = st.ReplayFrom(seek)
		for rp.NextInto(&d) {
		}
		if seek <= st.n {
			check("seek", rp.seq, rp.Err())
		} else if rp.Err() == nil {
			t.Fatalf("seek to %d past the end of %d: no error", seek, st.n)
		}

		cr := st.DecodeChunksFrom(seek, 97)
		end := seek
		for {
			chunk, ok := cr.Next()
			if !ok {
				break
			}
			end = chunk[len(chunk)-1].Seq + 1
		}
		cr.Close()
		if seek <= st.n {
			check("chunks", end, cr.Err())
		}
	})
}
