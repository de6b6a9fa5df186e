package wirebin

import (
	"encoding/binary"
	"fmt"

	"pops/internal/popsnet"
	"pops/internal/wire"
)

// This file is the differential reference of the payload decoders: the
// per-varint, sticky-error reader the codec used before its block loops
// decoded whole blocks over a local slice, kept verbatim (renamed only) so
// FuzzPayloadDecodeMatchesReference can hold the fast decoders to its
// fields and its ErrCorruptFrame verdict on any payload.

// refReader is a cursor over one frame payload. All its take* methods fail
// with ErrCorruptFrame-tagged errors by setting err sticky.
type refReader struct {
	b   []byte
	err error
}

func (r *refReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorruptFrame}, args...)...)
	}
}

func (r *refReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *refReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a uvarint element count and sanity-checks it against the bytes
// that could possibly hold it (at least minSize bytes per element), so a
// corrupt count can never drive a huge allocation.
func (r *refReader) count(minSize int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)/minSize) {
		r.fail("count %d of %d-byte elements exceeds remaining %d bytes", n, minSize, len(r.b))
		return 0
	}
	return int(n)
}

func (r *refReader) byteVal() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("truncated byte")
		return 0
	}
	b := r.b[0]
	r.b = r.b[1:]
	return b
}

func (r *refReader) str() string {
	if r.err != nil {
		return ""
	}
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail("string length %d exceeds remaining %d bytes", n, len(r.b))
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *refReader) ints() []int {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.varint())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// done asserts the payload was consumed exactly.
func (r *refReader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after payload", ErrCorruptFrame, len(r.b))
	}
	return nil
}

// refDecodeMeta fills m from a FrameMeta payload.
func refDecodeMeta(payload []byte, m *wire.StreamMeta) error {
	r := refReader{b: payload}
	m.D = int(r.uvarint())
	m.G = int(r.uvarint())
	m.Workload = r.str()
	m.Slots = int(r.uvarint())
	m.Fragments = int(r.uvarint())
	m.Strategy = r.str()
	m.Fingerprint = r.str()
	m.Cached = r.byteVal()&flagCached != 0
	m.RequestID = r.str()
	return r.done()
}

// refDecodeSlot fills s from a FrameSlot payload, reusing s.Sends and s.Recvs
// capacity — the per-record decode allocates nothing once the caller's
// record has seen the stream's largest fragment.
func refDecodeSlot(payload []byte, s *wire.StreamSlot) error {
	r := refReader{b: payload}
	s.Slot = int(r.uvarint())
	s.Color = int(r.varint())
	s.Offset = int(r.uvarint())
	s.Final = r.byteVal()&flagFinal != 0
	s.Sends, s.Recvs = refDecodeSendsRecvs(&r, s.Sends, s.Recvs)
	return r.done()
}

// refDecodeSendsRecvs reads a sends block and a recvs block into the given
// slices, reusing their capacity. A slice too small for its block's count
// is grown once, not append by append; a send is at least 3 varint bytes
// and a recv 2, so a count the bytes left cannot hold is refused first.
func refDecodeSendsRecvs(r *refReader, sends []popsnet.Send, recvs []popsnet.Recv) ([]popsnet.Send, []popsnet.Recv) {
	nSends := r.count(3)
	if cap(sends) < nSends {
		sends = make([]popsnet.Send, 0, nSends)
	}
	sends = sends[:0]
	for i := 0; i < nSends && r.err == nil; i++ {
		sends = append(sends, popsnet.Send{
			Src:       int(r.uvarint()),
			DestGroup: int(r.uvarint()),
			Packet:    int(r.uvarint()),
		})
	}
	nRecvs := r.count(2)
	if cap(recvs) < nRecvs {
		recvs = make([]popsnet.Recv, 0, nRecvs)
	}
	recvs = recvs[:0]
	for i := 0; i < nRecvs && r.err == nil; i++ {
		recvs = append(recvs, popsnet.Recv{
			Proc:     int(r.uvarint()),
			SrcGroup: int(r.uvarint()),
		})
	}
	return sends, recvs
}

// refDecodeDone fills d from a FrameDone payload.
func refDecodeDone(payload []byte, d *wire.StreamDone) error {
	r := refReader{b: payload}
	d.Slots = int(r.uvarint())
	d.Fragments = int(r.uvarint())
	return r.done()
}

// refDecodeError extracts the error text of a FrameError payload.
func refDecodeError(payload []byte) (string, error) {
	r := refReader{b: payload}
	msg := r.str()
	return msg, r.done()
}

// refDecodeRequest fills req from a FrameRequest payload.
func refDecodeRequest(payload []byte, req *wire.RouteRequest) error {
	r := refReader{b: payload}
	req.D = int(r.uvarint())
	req.G = int(r.uvarint())
	req.Workload = r.str()
	req.Tenant = r.str()
	req.Strategy = r.str()
	req.Speaker = int(r.uvarint())
	flags := r.byteVal()
	req.IncludeSchedule = flags&flagSchedule != 0
	req.Pi = r.ints()
	nPis := r.count(1)
	req.Pis = nil
	for i := 0; i < nPis && r.err == nil; i++ {
		req.Pis = append(req.Pis, r.ints())
	}
	nReqs := r.count(1)
	req.Requests = nil
	for i := 0; i < nReqs && r.err == nil; i++ {
		req.Requests = append(req.Requests, wire.Request{
			Src: int(r.uvarint()),
			Dst: int(r.uvarint()),
		})
	}
	req.Faults = nil
	if flags&flagFaults != 0 {
		fs := &wire.FaultSet{}
		nCouplers := r.count(1)
		for i := 0; i < nCouplers && r.err == nil; i++ {
			fs.Couplers = append(fs.Couplers, wire.Coupler{
				B: int(r.uvarint()),
				A: int(r.uvarint()),
			})
		}
		fs.Groups = r.ints()
		req.Faults = fs
	}
	return r.done()
}

// refDecodeResponse fills resp from a FrameResponse payload.
func refDecodeResponse(payload []byte, resp *wire.RouteResponse) error {
	r := refReader{b: payload}
	resp.D = int(r.uvarint())
	resp.G = int(r.uvarint())
	resp.RequestID = r.str()
	nPlans := r.count(1)
	resp.Plans = make([]wire.PlanResult, 0, nPlans)
	for i := 0; i < nPlans && r.err == nil; i++ {
		resp.Plans = append(resp.Plans, refDecodePlan(&r))
	}
	return r.done()
}

// refDecodePlan decodes one PlanResult of a response frame.
func refDecodePlan(r *refReader) wire.PlanResult {
	flags := r.byteVal()
	p := wire.PlanResult{
		Cached:   flags&flagCached != 0,
		Strategy: r.str(),
		Workload: r.str(),
		Slots:    int(r.uvarint()),
		Rounds:   int(r.uvarint()),
		H:        int(r.uvarint()),
	}
	p.Fingerprint = r.str()
	p.Error = r.str()
	if flags&flagError != 0 && p.Error == "" && r.err == nil {
		r.fail("plan flagged as error carries no error text")
	}
	if flags&flagUnroutable != 0 {
		uflags := r.byteVal()
		p.Unroutable = &wire.UnroutableInfo{
			SeveredSrc: uflags&flagSeveredSrc != 0,
			SeveredDst: uflags&flagSeveredDst != 0,
			Packet:     int(r.uvarint()),
			SrcGroup:   int(r.uvarint()),
			DstGroup:   int(r.uvarint()),
		}
	}
	if flags&flagSchedule != 0 {
		d := int(r.uvarint())
		g := int(r.uvarint())
		nSlots := r.count(1)
		sched := &popsnet.Schedule{Net: popsnet.Network{D: d, G: g}}
		sched.Slots = make([]popsnet.Slot, 0, nSlots)
		for i := 0; i < nSlots && r.err == nil; i++ {
			sends, recvs := refDecodeSendsRecvs(r, nil, nil)
			sched.Slots = append(sched.Slots, popsnet.Slot{Sends: sends, Recvs: recvs})
		}
		p.Schedule = sched
	}
	return p
}
