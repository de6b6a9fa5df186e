package wirebin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"pops/internal/popsnet"
	"pops/internal/wire"
)

// replayReader re-serves the same byte slice forever, resetting on EOF, so a
// decode loop can run an unbounded number of iterations over one frame
// without per-iteration reader churn.
type replayReader struct {
	data []byte
	pos  int
}

func (r *replayReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		r.pos = 0
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

// allocBudgetSlot is a representative whole-slot record: 16 sends and 16
// recvs, the shape a d=16 backend streams on the hot path.
func allocBudgetSlot() wire.StreamSlot {
	s := wire.StreamSlot{Slot: 12, Color: -1, Offset: 0, Final: true}
	for i := 0; i < 16; i++ {
		s.Sends = append(s.Sends, popsnet.Send{Src: i * 17, DestGroup: i % 8, Packet: i * 31})
		s.Recvs = append(s.Recvs, popsnet.Recv{Proc: i * 13, SrcGroup: (i + 3) % 8})
	}
	return s
}

// TestWireEncodeAllocBudget is the wire-path half of `make alloc-guard`: a
// steady-state slot record must encode and decode with zero allocations per
// operation, mirroring the factorizer arena budget on the library side.
func TestWireEncodeAllocBudget(t *testing.T) {
	slot := allocBudgetSlot()
	e := GetEncoder()
	defer PutEncoder(e)
	// Warm the encoder buffer once; steady state reuses it.
	frame := append([]byte(nil), e.AppendSlot(&slot)...)

	if got := testing.AllocsPerRun(200, func() {
		e.AppendSlot(&slot)
	}); got != 0 {
		t.Errorf("AppendSlot: %v allocs/op, want 0", got)
	}

	d := NewDecoder(&replayReader{data: frame})
	var out wire.StreamSlot
	// Warm the decoder buffer and the decode-into slices.
	typ, payload, err := d.ReadFrame()
	if err != nil || typ != FrameSlot {
		t.Fatalf("warm ReadFrame: typ=%d err=%v", typ, err)
	}
	if err := DecodeSlot(payload, &out); err != nil {
		t.Fatalf("warm DecodeSlot: %v", err)
	}

	if got := testing.AllocsPerRun(200, func() {
		typ, payload, err := d.ReadFrame()
		if err != nil || typ != FrameSlot {
			panic(fmt.Sprintf("ReadFrame: typ=%d err=%v", typ, err))
		}
		if err := DecodeSlot(payload, &out); err != nil {
			panic(err)
		}
	}); got != 0 {
		t.Errorf("ReadFrame+DecodeSlot: %v allocs/op, want 0", got)
	}
}

// TestDecodeSlotFreshRecordAllocs pins a slot decoded into a fresh record
// (the client's first fragment of a stream): Sends and Recvs are each sized
// once from their block's count, two allocations in all, instead of
// growing append by append.
func TestDecodeSlotFreshRecordAllocs(t *testing.T) {
	slot := allocBudgetSlot()
	if len(slot.Sends) < 2 || len(slot.Recvs) < 2 {
		t.Fatalf("fixture has %d sends and %d recvs, want at least 2 of each", len(slot.Sends), len(slot.Recvs))
	}
	e := GetEncoder()
	defer PutEncoder(e)
	frame := append([]byte(nil), e.AppendSlot(&slot)...)
	typ, payload, err := NewDecoder(&replayReader{data: frame}).ReadFrame()
	if err != nil || typ != FrameSlot {
		t.Fatalf("ReadFrame: typ=%d err=%v", typ, err)
	}
	var out wire.StreamSlot
	if got := testing.AllocsPerRun(200, func() {
		out = wire.StreamSlot{}
		if err := DecodeSlot(payload, &out); err != nil {
			panic(err)
		}
	}); got != 2 {
		t.Errorf("DecodeSlot into an empty record: %v allocs/op, want 2", got)
	}
	if len(out.Sends) != len(slot.Sends) || len(out.Recvs) != len(slot.Recvs) {
		t.Fatalf("decoded %d sends and %d recvs, want %d and %d",
			len(out.Sends), len(out.Recvs), len(slot.Sends), len(slot.Recvs))
	}
}

// TestDecodeSlotCorruptCountBound feeds DecodeSlot a fragment whose sends
// count claims every byte left, each byte a zero varint. A send needs three
// of them, so the decode must fail as corrupt before it sizes anything from
// the count.
func TestDecodeSlotCorruptCountBound(t *testing.T) {
	const n = 1 << 20
	payload := binary.AppendUvarint([]byte{0, 0, 0, 0}, n) // slot, color, offset, flags
	payload = append(payload, make([]byte, n)...)
	var out wire.StreamSlot
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := DecodeSlot(payload, &out)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("DecodeSlot: %v, want ErrCorruptFrame", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > n {
		t.Errorf("decoding a %d-byte corrupt fragment allocated %d bytes, want under %d", len(payload), got, n)
	}
}

// TestDecodeRequestHRelationAllocs pins the node's request decode at the
// served h-relation shape, a 4-relation on POPS(16,16) of 1024 pairs: the
// pairs are sized once from their count, so the decode costs the Workload
// string and the Requests slice, two allocations in all.
func TestDecodeRequestHRelationAllocs(t *testing.T) {
	req := servedHRelation(16, 16, 4)
	if len(req.Requests) != 1024 {
		t.Fatalf("fixture has %d pairs, want 1024", len(req.Requests))
	}
	e := GetEncoder()
	defer PutEncoder(e)
	_, payload := decodeOne(t, e.AppendRequest(&req))
	var out wire.RouteRequest
	if got := testing.AllocsPerRun(100, func() {
		out = wire.RouteRequest{}
		if err := DecodeRequest(payload, &out); err != nil {
			panic(err)
		}
	}); got != 2 {
		t.Errorf("DecodeRequest of a 1024-pair h-relation: %v allocs/op, want 2", got)
	}
	if len(out.Requests) != len(req.Requests) || out.Requests[1023] != req.Requests[1023] {
		t.Fatalf("decoded %d pairs, want %d", len(out.Requests), len(req.Requests))
	}
}

// TestDecodeRequestCorruptCountBound feeds DecodeRequest a body whose pairs
// count claims every byte left, each byte a zero varint. A pair needs two of
// them, so the decode must fail as corrupt before it sizes anything from the
// count.
func TestDecodeRequestCorruptCountBound(t *testing.T) {
	const n = 1 << 20
	// d, g, workload, tenant, strategy, speaker, flags, pi, pis, then the
	// pairs count.
	payload := binary.AppendUvarint([]byte{1, 1, 0, 0, 0, 0, 0, 0, 0}, n)
	payload = append(payload, make([]byte, n)...)
	var out wire.RouteRequest
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := DecodeRequest(payload, &out)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("DecodeRequest: %v, want ErrCorruptFrame", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > n {
		t.Errorf("decoding a %d-byte corrupt request allocated %d bytes, want under %d", len(payload), got, n)
	}
}

// TestReframerAllocBudget keeps the proxy relay path on the same zero
// steady-state budget: relaying a frame must not allocate once the buffer is
// warm.
func TestReframerAllocBudget(t *testing.T) {
	slot := allocBudgetSlot()
	e := GetEncoder()
	defer PutEncoder(e)
	frame := append([]byte(nil), e.AppendSlot(&slot)...)

	rf := NewReframer(&replayReader{data: frame})
	if _, err := rf.Next(); err != nil {
		t.Fatalf("warm Next: %v", err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := rf.Next(); err != nil {
			panic(err)
		}
	}); got != 0 {
		t.Errorf("Reframer.Next: %v allocs/op, want 0", got)
	}
}
