package wirebin

import (
	"encoding/binary"
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
	b := e.begin(FrameMeta)
	b = binary.AppendUvarint(b, uint64(m.D))
	b = binary.AppendUvarint(b, uint64(m.G))
	b = appendStr(b, m.Workload)
	b = binary.AppendUvarint(b, uint64(m.Slots))
	b = binary.AppendUvarint(b, uint64(m.Fragments))
	b = appendStr(b, m.Strategy)
	b = appendStr(b, m.Fingerprint)
	var flags byte
	if m.Cached {
		flags |= flagCached
	}
	b = append(b, flags)
	b = appendStr(b, m.RequestID)
	return e.finish(b)
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
	b := e.begin(FrameSlot)
	b = binary.AppendUvarint(b, uint64(s.Slot))
	b = binary.AppendVarint(b, int64(s.Color))
	b = binary.AppendUvarint(b, uint64(s.Offset))
	var flags byte
	if s.Final {
		flags |= flagFinal
	}
	b = append(b, flags)
	return e.finish(appendSendsRecvs(b, s.Sends, s.Recvs))
}

// appendSendsRecvs encodes a sends block and a recvs block, the fields
// through the inline appendUvarint12.
func appendSendsRecvs(b []byte, sends []popsnet.Send, recvs []popsnet.Recv) []byte {
	b = binary.AppendUvarint(b, uint64(len(sends)))
	for i := range sends {
		b = appendUvarint12(b, uint64(sends[i].Src))
		b = appendUvarint12(b, uint64(sends[i].DestGroup))
		b = appendUvarint12(b, uint64(sends[i].Packet))
	}
	b = binary.AppendUvarint(b, uint64(len(recvs)))
	for i := range recvs {
		b = appendUvarint12(b, uint64(recvs[i].Proc))
		b = appendUvarint12(b, uint64(recvs[i].SrcGroup))
	}
	return b
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
// Each block decodes in one loop over a local slice, its fields through the
// inline uvarint12 and binary.Uvarint only past two bytes.
func decodeSendsRecvs(r *reader, sends []popsnet.Send, recvs []popsnet.Recv) ([]popsnet.Send, []popsnet.Recv) {
	sends = resize(sends, r.count(3))
	b := r.b
	for i := range sends {
		var f [3]uint64
		for j := range f {
			v, n := uvarint12(b)
			if n == 0 {
				if v, n = binary.Uvarint(b); n <= 0 {
					r.fail("truncated uvarint")
					return sends, recvs
				}
			}
			f[j], b = v, b[n:]
		}
		sends[i] = popsnet.Send{Src: int(f[0]), DestGroup: int(f[1]), Packet: int(f[2])}
	}
	r.b = b
	recvs = resize(recvs, r.count(2))
	b = r.b
	for i := range recvs {
		var f [2]uint64
		for j := range f {
			v, n := uvarint12(b)
			if n == 0 {
				if v, n = binary.Uvarint(b); n <= 0 {
					r.fail("truncated uvarint")
					return sends, recvs
				}
			}
			f[j], b = v, b[n:]
		}
		recvs[i] = popsnet.Recv{Proc: int(f[0]), SrcGroup: int(f[1])}
	}
	r.b = b
	return sends, recvs
}

// resize returns s with length n, reusing its capacity when it suffices and
// allocating once otherwise.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// AppendDone encodes a stream's closing record.
func (e *Encoder) AppendDone(d *wire.StreamDone) []byte {
	b := e.begin(FrameDone)
	b = binary.AppendUvarint(b, uint64(d.Slots))
	b = binary.AppendUvarint(b, uint64(d.Fragments))
	return e.finish(b)
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
	return e.finish(appendStr(e.begin(FrameError), msg))
}

// DecodeError extracts the error text of a FrameError payload.
func DecodeError(payload []byte) (string, error) {
	r := reader{b: payload}
	msg := r.str()
	return msg, r.done()
}

// AppendRequest encodes a unary route request body.
func (e *Encoder) AppendRequest(req *wire.RouteRequest) []byte {
	b := e.begin(FrameRequest)
	b = binary.AppendUvarint(b, uint64(req.D))
	b = binary.AppendUvarint(b, uint64(req.G))
	b = appendStr(b, req.Workload)
	b = appendStr(b, req.Tenant)
	b = appendStr(b, req.Strategy)
	b = binary.AppendUvarint(b, uint64(req.Speaker))
	var flags byte
	if req.IncludeSchedule {
		flags |= flagSchedule
	}
	if req.Faults != nil {
		flags |= flagFaults
	}
	b = append(b, flags)
	b = appendInts(b, req.Pi)
	b = binary.AppendUvarint(b, uint64(len(req.Pis)))
	for _, pi := range req.Pis {
		b = appendInts(b, pi)
	}
	b = binary.AppendUvarint(b, uint64(len(req.Requests)))
	for i := range req.Requests {
		b = appendUvarint12(b, uint64(req.Requests[i].Src))
		b = appendUvarint12(b, uint64(req.Requests[i].Dst))
	}
	if req.Faults != nil {
		b = binary.AppendUvarint(b, uint64(len(req.Faults.Couplers)))
		for i := range req.Faults.Couplers {
			b = binary.AppendUvarint(b, uint64(req.Faults.Couplers[i].B))
			b = binary.AppendUvarint(b, uint64(req.Faults.Couplers[i].A))
		}
		b = appendInts(b, req.Faults.Groups)
	}
	return e.finish(b)
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
	req.Pis = nil
	if n := r.count(1); n > 0 {
		req.Pis = make([][]int, n)
		for i := range req.Pis {
			req.Pis[i] = r.ints()
		}
	}
	req.Requests = nil
	if n := r.count(2); n > 0 {
		req.Requests = make([]wire.Request, n)
		b := r.b
		for i := range req.Requests {
			var f [2]uint64
			for j := range f {
				v, k := uvarint12(b)
				if k == 0 {
					if v, k = binary.Uvarint(b); k <= 0 {
						r.fail("truncated uvarint")
						return r.err
					}
				}
				f[j], b = v, b[k:]
			}
			req.Requests[i] = wire.Request{Src: int(f[0]), Dst: int(f[1])}
		}
		r.b = b
	}
	req.Faults = nil
	if flags&flagFaults != 0 {
		fs := &wire.FaultSet{}
		if n := r.count(2); n > 0 {
			fs.Couplers = make([]wire.Coupler, n)
			for i := range fs.Couplers {
				fs.Couplers[i] = wire.Coupler{B: int(r.uvarint()), A: int(r.uvarint())}
			}
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
	b := e.begin(FrameResponse)
	b = binary.AppendUvarint(b, uint64(resp.D))
	b = binary.AppendUvarint(b, uint64(resp.G))
	b = appendStr(b, resp.RequestID)
	b = binary.AppendUvarint(b, uint64(len(resp.Plans)))
	for i := range resp.Plans {
		b = appendPlan(b, &resp.Plans[i])
	}
	return e.finish(b)
}

// appendPlan encodes one PlanResult of a response frame.
func appendPlan(b []byte, p *wire.PlanResult) []byte {
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
	b = append(b, flags)
	b = appendStr(b, p.Strategy)
	b = appendStr(b, p.Workload)
	b = binary.AppendUvarint(b, uint64(p.Slots))
	b = binary.AppendUvarint(b, uint64(p.Rounds))
	b = binary.AppendUvarint(b, uint64(p.H))
	b = appendStr(b, p.Fingerprint)
	b = appendStr(b, p.Error)
	if p.Unroutable != nil {
		u := p.Unroutable
		var uflags byte
		if u.SeveredSrc {
			uflags |= flagSeveredSrc
		}
		if u.SeveredDst {
			uflags |= flagSeveredDst
		}
		b = append(b, uflags)
		b = binary.AppendUvarint(b, uint64(u.Packet))
		b = binary.AppendUvarint(b, uint64(u.SrcGroup))
		b = binary.AppendUvarint(b, uint64(u.DstGroup))
	}
	if p.Schedule != nil {
		b = binary.AppendUvarint(b, uint64(p.Schedule.Net.D))
		b = binary.AppendUvarint(b, uint64(p.Schedule.Net.G))
		b = binary.AppendUvarint(b, uint64(len(p.Schedule.Slots)))
		for i := range p.Schedule.Slots {
			b = appendSendsRecvs(b, p.Schedule.Slots[i].Sends, p.Schedule.Slots[i].Recvs)
		}
	}
	return b
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
