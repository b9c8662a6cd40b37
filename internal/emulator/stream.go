package emulator

import (
	"encoding/binary"
	"fmt"
	"sort"
	"unsafe"

	"tracepre/internal/isa"
	"tracepre/internal/program"
)

// Stream is a compact recording of a committed dynamic instruction
// stream. Only the truly dynamic bits are stored — conditional branch
// outcomes (one bit each), indirect jump targets and memory effective
// addresses (zig-zag varint deltas) — everything else is regenerated
// from the immutable program image during replay. Typical encodings run
// well under 2 bytes per instruction, far below the 8-byte budget.
//
// A sync index makes the stream seekable: a decoder can start at any
// indexed position instead of at instruction 0 (see SyncInterval).
//
// A Stream is immutable once sealed and safe to share across goroutines;
// each concurrent consumer gets its own Replayer.
type Stream struct {
	im    *program.Image
	entry uint32 // PC of the first recorded instruction
	n     uint64 // instructions recorded
	taken []byte // conditional branch outcomes, bit-packed in commit order
	nbits uint64 // bits used in taken
	aux   []byte // varint deltas: mem addresses and indirect targets, in commit order
	sync  []syncEntry
}

// SyncInterval is the spacing of the sync index: the Recorder adds an
// entry at the first universal trace start at or after every multiple
// of SyncInterval instructions.
//
// A universal trace start is the stream start or the position right
// after an indirect jump (OpJr, OpJalr). Trace selection ends a trace
// at every return and indirect jump whatever its SelectConfig, and a
// fresh trace carries no segmenter state, so such a position starts a
// trace under every selection rule: a consumer that begins decoding
// there, with a freshly reset segmenter, sees exactly the traces a
// consumer that decoded from instruction 0 sees from that point on.
const SyncInterval = 1 << 16

// syncEntry is the complete replay state at one indexed position: the
// PC and the read cursors and delta base of the two dynamic-bit
// streams.
type syncEntry struct {
	seq     uint64 // position: instructions before it
	bitPos  uint64 // taken-bit index
	auxPos  uint64 // aux byte offset
	pc      uint32
	lastMem uint32 // memory-address delta base
}

// Len returns the number of recorded instructions.
func (s *Stream) Len() uint64 { return s.n }

// Image returns the program image the stream was recorded from.
func (s *Stream) Image() *program.Image { return s.im }

// Bytes returns the encoded size of the stream in bytes, sync index
// included (excluding the shared program image).
func (s *Stream) Bytes() int {
	return len(s.taken) + len(s.aux) + len(s.sync)*int(unsafe.Sizeof(syncEntry{})) + 32
}

// SyncBefore returns the last indexed position at or before n: a
// universal trace start (see SyncInterval) from which ReplayFrom and
// DecodeChunksFrom decode without touching the stream before it. It
// returns 0 when no entry lies at or before n.
func (s *Stream) SyncBefore(n uint64) uint64 {
	if i := s.syncIndex(n); i >= 0 {
		return s.sync[i].seq
	}
	return 0
}

// syncIndex returns the index of the last sync entry at or before n,
// or -1.
func (s *Stream) syncIndex(n uint64) int {
	return sort.Search(len(s.sync), func(i int) bool { return s.sync[i].seq > n }) - 1
}

// BytesPerInstr returns the amortized encoding cost.
func (s *Stream) BytesPerInstr() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.Bytes()) / float64(s.n)
}

// zigzag maps a signed delta to an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

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

// Record runs a fresh emulator for up to budget committed instructions
// and returns the sealed recording. The recording ends early on a clean
// halt; any other emulation error is returned.
func Record(im *program.Image, budget uint64) (*Stream, error) {
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

// Replayer re-emits a recorded Stream as Dyn records. Replay is allocation-free and bit-identical to the original
// emulation: instructions are re-decoded from the program image and the
// recorded dynamic bits fill in branch outcomes, indirect targets and
// memory addresses.
type Replayer struct {
	s       *Stream
	code    []isa.Inst // the image's decoded instructions (shared, read-only)
	base    uint32     // image base: code[(pc-base)/WordSize] decodes pc
	pc      uint32
	seq     uint64
	bitPos  uint64
	auxPos  int
	lastMem uint32
	err     error
}

// Replay returns a fresh Replayer positioned at the start of the
// stream. Replayers are independent: any number may consume the same
// Stream concurrently.
func (s *Stream) Replay() *Replayer {
	return s.replayAt(syncEntry{pc: s.entry})
}

// ReplayFrom returns a fresh Replayer positioned at instruction n: it
// starts at SyncBefore(n) and decodes the gap up to n, so a sync
// position costs nothing to reach. Decoding from n yields exactly the
// records a Replayer started at 0 yields from its n-th on, Seq
// included. A position past the end of the stream, or a sync entry
// that does not fit the stream, is reported by Err.
func (s *Stream) ReplayFrom(n uint64) *Replayer {
	if n > s.n {
		return &Replayer{s: s, err: fmt.Errorf("emulator: seek to %d past end of stream (%d instructions)", n, s.n)}
	}
	e := syncEntry{pc: s.entry}
	if i := s.syncIndex(n); i >= 0 {
		e = s.sync[i]
	}
	r := s.replayAt(e)
	var d Dyn
	for r.seq < n {
		if !r.NextInto(&d) {
			break
		}
	}
	return r
}

// replayAt returns a Replayer positioned at e, or one whose Err reports
// why e, or the stream's dynamic-bit buffers, cannot be decoded.
func (s *Stream) replayAt(e syncEntry) *Replayer {
	r := &Replayer{s: s, pc: e.pc, seq: e.seq, bitPos: e.bitPos, lastMem: e.lastMem,
		code: s.im.Insts(), base: s.im.Base}
	switch {
	case s.nbits > uint64(len(s.taken))*8:
		r.err = fmt.Errorf("emulator: corrupt stream: %d branch bits in %d bytes", s.nbits, len(s.taken))
	case e.seq > s.n || e.bitPos > s.nbits || e.auxPos > uint64(len(s.aux)):
		r.err = fmt.Errorf("emulator: corrupt stream: sync entry %+v outside the stream", e)
	default:
		r.auxPos = int(e.auxPos)
	}
	return r
}

// readAux decodes the next varint delta from the aux buffer.
func (r *Replayer) readAux() (int64, bool) {
	u, k := binary.Uvarint(r.s.aux[r.auxPos:])
	if k <= 0 {
		r.err = fmt.Errorf("emulator: corrupt stream aux data at %d", r.auxPos)
		return 0, false
	}
	r.auxPos += k
	return unzigzag(u), true
}

// Next returns the next recorded instruction, or ok=false at the end
// of the stream or on a decode error (reported by Err).
func (r *Replayer) Next() (Dyn, bool) {
	var d Dyn
	if !r.NextInto(&d) {
		return Dyn{}, false
	}
	return d, true
}

// NextInto decodes the next instruction directly into *d, avoiding the
// value-return copy on the hot path. It reports false at end of stream
// or on error (*d is then undefined).
func (r *Replayer) NextInto(d *Dyn) bool {
	if r.err != nil || r.seq >= r.s.n {
		return false
	}
	idx := (r.pc - r.base) / isa.WordSize
	if uint64(idx) >= uint64(len(r.code)) || (r.pc-r.base)%isa.WordSize != 0 {
		r.err = fmt.Errorf("%w: 0x%x (replay)", ErrBadPC, r.pc)
		return false
	}
	in := &r.code[idx]
	d.Seq = r.seq
	d.PC = r.pc
	d.Inst = *in
	d.Taken = false
	d.NextPC = 0
	d.MemAddr = 0
	next := r.pc + isa.WordSize
	switch in.Op {
	case isa.OpLoad, isa.OpStore:
		delta, ok := r.readAux()
		if !ok {
			return false
		}
		d.MemAddr = uint32(int64(r.lastMem) + delta)
		r.lastMem = d.MemAddr
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		if r.bitPos >= r.s.nbits {
			r.err = fmt.Errorf("emulator: corrupt stream: branch bits exhausted at seq %d", r.seq)
			return false
		}
		d.Taken = r.s.taken[r.bitPos/8]&(1<<(r.bitPos%8)) != 0
		r.bitPos++
		if d.Taken {
			next = in.BranchTarget(r.pc)
		}
	case isa.OpJmp, isa.OpJal:
		next = in.Target
	case isa.OpJr, isa.OpJalr:
		delta, ok := r.readAux()
		if !ok {
			return false
		}
		next = uint32(int64(r.pc) + int64(isa.WordSize) + delta)
	}
	d.NextPC = next
	r.pc = next
	r.seq++
	return true
}

// Err reports the first decode error, nil at a clean end of stream.
func (r *Replayer) Err() error { return r.err }
