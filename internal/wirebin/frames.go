package wirebin

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"pops/internal/popsnet"
	"pops/internal/wire"
)

// Flag bits of the per-frame flags byte. Each frame type documents which
// bits it uses; unused bits must be zero.
const (
	flagFinal      byte = 1 << 0 // slot: last fragment of its slot
	flagCached     byte = 1 << 1 // meta, plan: answered from the plan cache
	flagSchedule   byte = 1 << 2 // request: include_schedule; plan: schedule present
	flagFaults     byte = 1 << 3 // request: fault set present
	flagError      byte = 1 << 4 // plan: error text present (plan fields zero)
	flagUnroutable byte = 1 << 5 // plan: unroutable info present
	flagSeveredSrc byte = 1 << 6 // unroutable: source side severed
	flagSeveredDst byte = 1 << 7 // unroutable: destination side severed
)

// AppendMeta encodes a stream's opening meta record. The returned slice
// aliases the Encoder's buffer.
func (e *Encoder) AppendMeta(m *wire.StreamMeta) []byte {
	e.begin(FrameMeta)
	e.uvarint(uint64(m.D))
	e.uvarint(uint64(m.G))
	e.str(m.Workload)
	e.uvarint(uint64(m.Slots))
	e.uvarint(uint64(m.Fragments))
	e.str(m.Strategy)
	e.str(m.Fingerprint)
	var flags byte
	if m.Cached {
		flags |= flagCached
	}
	e.byteVal(flags)
	e.str(m.RequestID)
	return e.finish()
}

// DecodeMeta fills m from a FrameMeta payload.
func DecodeMeta(payload []byte, m *wire.StreamMeta) error {
	r := reader{b: payload}
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

// AppendSlot encodes one slot fragment — the per-record hot path. Allocation
// free once the Encoder's buffer has grown to the largest fragment.
func (e *Encoder) AppendSlot(s *wire.StreamSlot) []byte {
	e.begin(FrameSlot)
	e.uvarint(uint64(s.Slot))
	e.varint(int64(s.Color))
	e.uvarint(uint64(s.Offset))
	var flags byte
	if s.Final {
		flags |= flagFinal
	}
	e.byteVal(flags)
	e.uvarint(uint64(len(s.Sends)))
	for i := range s.Sends {
		e.uvarint(uint64(s.Sends[i].Src))
		e.uvarint(uint64(s.Sends[i].DestGroup))
		e.uvarint(uint64(s.Sends[i].Packet))
	}
	e.uvarint(uint64(len(s.Recvs)))
	for i := range s.Recvs {
		e.uvarint(uint64(s.Recvs[i].Proc))
		e.uvarint(uint64(s.Recvs[i].SrcGroup))
	}
	return e.finish()
}

// DecodeSlot fills s from a FrameSlot payload, reusing s.Sends and s.Recvs
// capacity — the per-record decode allocates nothing once the caller's
// record has seen the stream's largest fragment.
func DecodeSlot(payload []byte, s *wire.StreamSlot) error {
	r := reader{b: payload}
	s.Slot = int(r.uvarint())
	s.Color = int(r.varint())
	s.Offset = int(r.uvarint())
	s.Final = r.byteVal()&flagFinal != 0
	s.Sends, s.Recvs = decodeSendsRecvs(&r, s.Sends, s.Recvs)
	return r.done()
}

// decodeSendsRecvs reads a sends block and a recvs block into the given
// slices, reusing their capacity. A slice too small for its block's count
// is grown once, not append by append; a send is at least 3 varint bytes
// and a recv 2, so a count the bytes left cannot hold is refused first.
func decodeSendsRecvs(r *reader, sends []popsnet.Send, recvs []popsnet.Recv) ([]popsnet.Send, []popsnet.Recv) {
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

// AppendDone encodes a stream's closing record.
func (e *Encoder) AppendDone(d *wire.StreamDone) []byte {
	e.begin(FrameDone)
	e.uvarint(uint64(d.Slots))
	e.uvarint(uint64(d.Fragments))
	return e.finish()
}

// DecodeDone fills d from a FrameDone payload.
func DecodeDone(payload []byte, d *wire.StreamDone) error {
	r := reader{b: payload}
	d.Slots = int(r.uvarint())
	d.Fragments = int(r.uvarint())
	return r.done()
}

// AppendError encodes an in-band error record (mid-stream planning failure,
// or a relay reporting a dead backend).
func (e *Encoder) AppendError(msg string) []byte {
	e.begin(FrameError)
	e.str(msg)
	return e.finish()
}

// DecodeError extracts the error text of a FrameError payload.
func DecodeError(payload []byte) (string, error) {
	r := reader{b: payload}
	msg := r.str()
	return msg, r.done()
}

// AppendRequest encodes a unary route request body.
func (e *Encoder) AppendRequest(req *wire.RouteRequest) []byte {
	e.begin(FrameRequest)
	e.uvarint(uint64(req.D))
	e.uvarint(uint64(req.G))
	e.str(req.Workload)
	e.str(req.Tenant)
	e.str(req.Strategy)
	e.uvarint(uint64(req.Speaker))
	var flags byte
	if req.IncludeSchedule {
		flags |= flagSchedule
	}
	if req.Faults != nil {
		flags |= flagFaults
	}
	e.byteVal(flags)
	e.ints(req.Pi)
	e.uvarint(uint64(len(req.Pis)))
	for _, pi := range req.Pis {
		e.ints(pi)
	}
	e.uvarint(uint64(len(req.Requests)))
	for i := range req.Requests {
		e.uvarint(uint64(req.Requests[i].Src))
		e.uvarint(uint64(req.Requests[i].Dst))
	}
	if req.Faults != nil {
		e.uvarint(uint64(len(req.Faults.Couplers)))
		for i := range req.Faults.Couplers {
			e.uvarint(uint64(req.Faults.Couplers[i].B))
			e.uvarint(uint64(req.Faults.Couplers[i].A))
		}
		e.ints(req.Faults.Groups)
	}
	return e.finish()
}

// DecodeRequest fills req from a FrameRequest payload.
func DecodeRequest(payload []byte, req *wire.RouteRequest) error {
	r := reader{b: payload}
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

// DecodeRequestBody reads a /route or /route/stream body in the request
// codec its Content-Type names: one FrameRequest for ContentType, the JSON
// schema otherwise. The body must hold exactly one request — anything after
// it but JSON whitespace is an error — so a node and a proxy in front of it
// accept the same bodies.
func DecodeRequestBody(contentType string, body io.Reader, req *wire.RouteRequest) error {
	if !IsContentType(contentType) {
		dec := json.NewDecoder(body)
		if err := dec.Decode(req); err != nil {
			return err
		}
		if _, err := dec.Token(); err != io.EOF {
			return errors.New("data after the request object")
		}
		return nil
	}
	dec := GetDecoder(body)
	defer PutDecoder(dec)
	typ, payload, err := dec.ReadFrame()
	if err == nil && typ != FrameRequest {
		err = fmt.Errorf("frame type %d, want request", typ)
	}
	if err == nil {
		err = DecodeRequest(payload, req)
	}
	if err == nil {
		if _, perr := dec.br.Peek(1); perr != io.EOF {
			err = fmt.Errorf("%w: data after the request frame", ErrCorruptFrame)
		}
	}
	return err
}

// AppendResponse encodes a unary route response body.
func (e *Encoder) AppendResponse(resp *wire.RouteResponse) []byte {
	e.begin(FrameResponse)
	e.uvarint(uint64(resp.D))
	e.uvarint(uint64(resp.G))
	e.str(resp.RequestID)
	e.uvarint(uint64(len(resp.Plans)))
	for i := range resp.Plans {
		e.appendPlan(&resp.Plans[i])
	}
	return e.finish()
}

// appendPlan encodes one PlanResult of a response frame.
func (e *Encoder) appendPlan(p *wire.PlanResult) {
	var flags byte
	if p.Cached {
		flags |= flagCached
	}
	if p.Error != "" {
		flags |= flagError
	}
	if p.Unroutable != nil {
		flags |= flagUnroutable
	}
	if p.Schedule != nil {
		flags |= flagSchedule
	}
	e.byteVal(flags)
	e.str(p.Strategy)
	e.str(p.Workload)
	e.uvarint(uint64(p.Slots))
	e.uvarint(uint64(p.Rounds))
	e.uvarint(uint64(p.H))
	e.str(p.Fingerprint)
	e.str(p.Error)
	if p.Unroutable != nil {
		u := p.Unroutable
		var uflags byte
		if u.SeveredSrc {
			uflags |= flagSeveredSrc
		}
		if u.SeveredDst {
			uflags |= flagSeveredDst
		}
		e.byteVal(uflags)
		e.uvarint(uint64(u.Packet))
		e.uvarint(uint64(u.SrcGroup))
		e.uvarint(uint64(u.DstGroup))
	}
	if p.Schedule != nil {
		e.uvarint(uint64(p.Schedule.Net.D))
		e.uvarint(uint64(p.Schedule.Net.G))
		e.uvarint(uint64(len(p.Schedule.Slots)))
		for i := range p.Schedule.Slots {
			slot := &p.Schedule.Slots[i]
			e.uvarint(uint64(len(slot.Sends)))
			for j := range slot.Sends {
				e.uvarint(uint64(slot.Sends[j].Src))
				e.uvarint(uint64(slot.Sends[j].DestGroup))
				e.uvarint(uint64(slot.Sends[j].Packet))
			}
			e.uvarint(uint64(len(slot.Recvs)))
			for j := range slot.Recvs {
				e.uvarint(uint64(slot.Recvs[j].Proc))
				e.uvarint(uint64(slot.Recvs[j].SrcGroup))
			}
		}
	}
}

// DecodeResponse fills resp from a FrameResponse payload.
func DecodeResponse(payload []byte, resp *wire.RouteResponse) error {
	r := reader{b: payload}
	resp.D = int(r.uvarint())
	resp.G = int(r.uvarint())
	resp.RequestID = r.str()
	nPlans := r.count(1)
	resp.Plans = make([]wire.PlanResult, 0, nPlans)
	for i := 0; i < nPlans && r.err == nil; i++ {
		resp.Plans = append(resp.Plans, decodePlan(&r))
	}
	return r.done()
}

// decodePlan decodes one PlanResult of a response frame.
func decodePlan(r *reader) wire.PlanResult {
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
			sends, recvs := decodeSendsRecvs(r, nil, nil)
			sched.Slots = append(sched.Slots, popsnet.Slot{Sends: sends, Recvs: recvs})
		}
		p.Schedule = sched
	}
	return p
}
