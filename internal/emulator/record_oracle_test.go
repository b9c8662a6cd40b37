package emulator

import (
	"encoding/binary"
	"fmt"
	"reflect"

	"tracepre/internal/isa"
	"tracepre/internal/program"
)

// The record oracle: the Dyn-at-a-time recorder Record replaced, kept
// verbatim as the byte-for-byte reference its streams are checked
// against. It observes Emulator.Run, so it shares nothing with Record
// but the execute core behind Step.

// Recorder captures a committed instruction stream into a Stream. Feed
// it every Dyn in commit order via Observe, then call Stream to seal.
type Recorder struct {
	s        Stream
	lastMem  uint32
	nextSync uint64 // position from which the next sync entry is due
}

// NewRecorder returns a Recorder for a program image.
func NewRecorder(im *program.Image) *Recorder {
	return &Recorder{s: Stream{im: im}}
}

// Observe appends one committed instruction to the recording. Records
// must arrive in commit order starting from the first instruction.
func (r *Recorder) Observe(d Dyn) {
	if len(r.s.sync) == 0 { // the first instruction: index the stream start
		r.s.entry = d.PC
		r.addSync(d.PC)
	}
	switch d.Inst.Op {
	case isa.OpLoad, isa.OpStore:
		delta := int64(d.MemAddr) - int64(r.lastMem)
		r.s.aux = binary.AppendUvarint(r.s.aux, zigzag(delta))
		r.lastMem = d.MemAddr
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		if r.s.nbits%8 == 0 {
			r.s.taken = append(r.s.taken, 0)
		}
		if d.Taken {
			r.s.taken[r.s.nbits/8] |= 1 << (r.s.nbits % 8)
		}
		r.s.nbits++
	case isa.OpJr, isa.OpJalr:
		delta := int64(d.NextPC) - int64(d.PC+isa.WordSize)
		r.s.aux = binary.AppendUvarint(r.s.aux, zigzag(delta))
		r.s.n++
		if r.s.n >= r.nextSync {
			r.addSync(d.NextPC)
		}
		return
	}
	r.s.n++
}

// addSync indexes the current position, a universal trace start whose
// first instruction is at pc, and schedules the next entry for the
// following multiple of SyncInterval.
func (r *Recorder) addSync(pc uint32) {
	r.s.sync = append(r.s.sync, syncEntry{
		seq:     r.s.n,
		bitPos:  r.s.nbits,
		auxPos:  uint64(len(r.s.aux)),
		pc:      pc,
		lastMem: r.lastMem,
	})
	r.nextSync = (r.s.n/SyncInterval + 1) * SyncInterval
}

// Stream seals and returns the recording. The Recorder must not be used
// afterwards.
func (r *Recorder) Stream() *Stream {
	s := r.s
	return &s
}

// RecordOracle is Record as it was before the inline encoder: a fresh
// emulator's Run feeding every Dyn to a Recorder. It is exported for
// the external test package's fuzz target.
func RecordOracle(im *program.Image, budget uint64) (*Stream, error) {
	e := New(im)
	r := NewRecorder(im)
	_, err := e.Run(budget, func(d Dyn) bool {
		r.Observe(d)
		return true
	})
	if err != nil {
		return nil, err
	}
	return r.Stream(), nil
}

// StreamDiff names the first field in which two recordings differ —
// image, entry, length, taken bits, aux bytes or sync index — or
// returns nil when they are equal, nil slices distinct from empty ones.
func StreamDiff(got, want *Stream) error {
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"image", got.im, want.im},
		{"entry", got.entry, want.entry},
		{"n", got.n, want.n},
		{"nbits", got.nbits, want.nbits},
		{"taken", got.taken, want.taken},
		{"aux", got.aux, want.aux},
		{"sync", got.sync, want.sync},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return fmt.Errorf("stream %s differs: got %v, want %v", f.name, clip(f.got), clip(f.want))
		}
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("streams differ outside the compared fields")
	}
	return nil
}

// clip renders a differing field for an error message, cut to 200
// bytes.
func clip(v any) string {
	s := fmt.Sprintf("%v", v)
	if len(s) > 200 {
		s = s[:200] + "…"
	}
	return s
}
