package emulator_test

import (
	"reflect"
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/trace"
	"tracepre/internal/workload"
)

// segTrace is one segmented trace: the stream offset it starts at, its
// length, and its header (the PCs and instructions are the decoded
// stream's, which TestSeekMatchesLinear checks).
type segTrace struct {
	start uint64
	n     int
	hdr   trace.Trace
}

// segmentFrom decodes st from pos with a fresh ChunkSegmenter under sel
// and returns every completed trace that starts before until.
func segmentFrom(t *testing.T, st *emulator.Stream, pos, until uint64, sel trace.SelectConfig) []segTrace {
	t.Helper()
	seg := trace.NewChunkSegmenter(sel)
	cr := st.DecodeChunksFrom(pos, 0)
	defer cr.Close()
	var out []segTrace
	for more := true; more; {
		chunk, ok := cr.Next()
		if !ok {
			break
		}
		for len(chunk) > 0 && more {
			used, tr, dyns := seg.Feed(chunk)
			if tr == nil {
				break
			}
			chunk = chunk[used:]
			if more = dyns[0].Seq < until; more {
				hdr := *tr
				hdr.PCs, hdr.Insts = nil, nil
				out = append(out, segTrace{dyns[0].Seq, len(dyns), hdr})
			}
		}
	}
	if err := cr.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSyncIsUniversalTraceStart checks the property seeking rests on:
// under the default SelectConfig, AlignMod=16 and MaxLen=8, a linear
// segmentation of the whole stream puts a trace boundary at every sync
// position, and a fresh segmenter started there produces the linear
// segmentation's traces exactly. The comparison runs through the next
// sync position: both segmenters are between traces there, with no
// state carried, so they agree on the rest of the stream too.
func TestSyncIsUniversalTraceStart(t *testing.T) {
	align16 := trace.DefaultSelectConfig()
	align16.AlignMod = 16
	len8 := trace.DefaultSelectConfig()
	len8.MaxLen = 8
	sels := []trace.SelectConfig{trace.DefaultSelectConfig(), align16, len8}

	for _, name := range []string{"gcc", "go", "compress"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		im, err := workload.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		st, err := emulator.Record(im, 3*emulator.SyncInterval+emulator.SyncInterval/2)
		if err != nil {
			t.Fatal(err)
		}
		var syncs []uint64
		for n := uint64(0); n <= st.Len(); n += 1024 {
			if s := st.SyncBefore(n); len(syncs) == 0 || s != syncs[len(syncs)-1] {
				syncs = append(syncs, s)
			}
		}
		if len(syncs) < 4 {
			t.Fatalf("%s: %d sync positions, want at least 4", name, len(syncs))
		}
		syncs = append(syncs, st.Len())
		for _, sel := range sels {
			linear := segmentFrom(t, st, 0, st.Len(), sel)
			first := map[uint64]int{} // trace start -> index in linear
			for i, s := range linear {
				first[s.start] = i
			}
			for j, pos := range syncs[:len(syncs)-1] {
				i, ok := first[pos]
				if !ok {
					t.Fatalf("%s %+v: no trace boundary at sync position %d", name, sel, pos)
				}
				next := syncs[j+1]
				want := linear[i:]
				if k, ok := first[next]; ok {
					want = linear[i : k+1]
				}
				if got := segmentFrom(t, st, pos, next+1, sel); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %+v: segmenting from sync position %d differs from the linear traces", name, sel, pos)
				}
			}
		}
	}
}
