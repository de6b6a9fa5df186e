package wirebin

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"pops/internal/popsnet"
	"pops/internal/wire"
)

// FuzzDecodeFrame feeds arbitrary bytes through the full decode surface —
// frame reader, reframer, and every per-type payload decoder — asserting the
// codec never panics, fails only with typed errors, and that anything it
// accepts re-encodes stably: decode→encode→decode→encode yields identical
// bytes, so an accepted frame has one canonical form.
func FuzzDecodeFrame(f *testing.F) {
	// Seed with one valid frame of every type so the fuzzer starts from
	// well-formed inputs and mutates toward the edges.
	e := GetEncoder()
	rng := rand.New(rand.NewSource(42))
	slot := randomSlot(rng, 16)
	f.Add(append([]byte(nil), e.AppendSlot(&slot)...))
	f.Add(append([]byte(nil), e.AppendMeta(&wire.StreamMeta{
		D: 16, G: 64, Workload: "permutation", Slots: 17, Fragments: 40,
		Strategy: "theorem2", Fingerprint: "aabbccdd", RequestID: "r1",
	})...))
	f.Add(append([]byte(nil), e.AppendDone(&wire.StreamDone{Slots: 17, Fragments: 40})...))
	f.Add(append([]byte(nil), e.AppendError("backend on fire")...))
	req := wire.RouteRequest{D: 4, G: 8, Pi: []int{1, 0, 3, 2}, Strategy: "greedy"}
	f.Add(append([]byte(nil), e.AppendRequest(&req)...))
	resp := wire.RouteResponse{D: 4, G: 8, Plans: []wire.PlanResult{{Strategy: "greedy", Slots: 4, Rounds: 1, Fingerprint: "00ff"}}}
	f.Add(append([]byte(nil), e.AppendResponse(&resp)...))
	PutEncoder(e)
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(bytes.NewReader(data))
		for {
			typ, payload, err := d.ReadFrame()
			if err != nil {
				// Any failure must be a clean EOF at a frame boundary or a
				// typed corrupt-frame error — never a raw io error or panic.
				if err != io.EOF && !errors.Is(err, ErrCorruptFrame) {
					t.Fatalf("ReadFrame: untyped error %v", err)
				}
				break
			}
			checkReencodeStable(t, typ, payload)
		}

		// The reframer must agree with the decoder on where frames end.
		rf := NewReframer(bytes.NewReader(data))
		for {
			frame, err := rf.Next()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrCorruptFrame) {
					t.Fatalf("Reframer.Next: untyped error %v", err)
				}
				break
			}
			if len(frame) < 3 {
				t.Fatalf("Reframer relayed a %d-byte frame", len(frame))
			}
		}
	})
}

// checkReencodeStable decodes one accepted payload; when the decode succeeds
// it re-encodes, decodes the re-encoding, and re-encodes again, asserting the
// two generations are byte-identical. (The first decode may accept
// non-minimal varint spellings, so generation-one bytes are the canonical
// form, not the input.)
func checkReencodeStable(t *testing.T, typ byte, payload []byte) {
	t.Helper()
	gen1 := encodeDecoded(t, typ, payload, true)
	if gen1 == nil {
		return // decode rejected the payload with a typed error
	}
	d := NewDecoder(bytes.NewReader(gen1))
	typ2, payload2, err := d.ReadFrame()
	if err != nil || typ2 != typ {
		t.Fatalf("type %d: canonical frame failed to re-read: typ=%d err=%v", typ, typ2, err)
	}
	gen2 := encodeDecoded(t, typ, payload2, false)
	if !bytes.Equal(gen1, gen2) {
		t.Fatalf("type %d re-encode unstable:\n gen1 %x\n gen2 %x", typ, gen1, gen2)
	}
}

// encodeDecoded decodes payload as frame type typ and returns a copy of its
// re-encoded frame. A decode failure returns nil when lenient (after
// asserting the error is typed) and fails the test otherwise.
func encodeDecoded(t *testing.T, typ byte, payload []byte, lenient bool) []byte {
	t.Helper()
	fail := func(err error) []byte {
		if !lenient {
			t.Fatalf("type %d: canonical payload failed to decode: %v", typ, err)
		}
		if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("type %d: decode failure not tagged ErrCorruptFrame: %v", typ, err)
		}
		return nil
	}
	e := GetEncoder()
	defer PutEncoder(e)
	switch typ {
	case FrameSlot:
		var s wire.StreamSlot
		if err := DecodeSlot(payload, &s); err != nil {
			return fail(err)
		}
		return append([]byte(nil), e.AppendSlot(&s)...)
	case FrameMeta:
		var m wire.StreamMeta
		if err := DecodeMeta(payload, &m); err != nil {
			return fail(err)
		}
		return append([]byte(nil), e.AppendMeta(&m)...)
	case FrameDone:
		var dn wire.StreamDone
		if err := DecodeDone(payload, &dn); err != nil {
			return fail(err)
		}
		return append([]byte(nil), e.AppendDone(&dn)...)
	case FrameError:
		msg, err := DecodeError(payload)
		if err != nil {
			return fail(err)
		}
		return append([]byte(nil), e.AppendError(msg)...)
	case FrameRequest:
		var r wire.RouteRequest
		if err := DecodeRequest(payload, &r); err != nil {
			return fail(err)
		}
		return append([]byte(nil), e.AppendRequest(&r)...)
	case FrameResponse:
		var r wire.RouteResponse
		if err := DecodeResponse(payload, &r); err != nil {
			return fail(err)
		}
		return append([]byte(nil), e.AppendResponse(&r)...)
	default:
		// Unknown frame types pass through ReadFrame (forward compatibility
		// for relays); there is nothing to re-encode.
		return nil
	}
}

// FuzzPayloadDecodeMatchesReference holds every payload decoder to the
// reference decoders of reference_test.go: on any payload, read as each
// frame type, both must accept or both refuse with ErrCorruptFrame, and an
// accepted payload must decode to the same fields. A slot payload is also
// decoded into a record that already holds sends and recvs, the stream
// loop's reuse case.
func FuzzPayloadDecodeMatchesReference(f *testing.F) {
	for _, p := range referenceSeedPayloads() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkMatchesReference(t, "slot", payload,
			func(s *wire.StreamSlot) error { return DecodeSlot(payload, s) },
			func(s *wire.StreamSlot) error { return refDecodeSlot(payload, s) })
		checkMatchesReference(t, "slot into a used record", payload,
			func(s *wire.StreamSlot) error { *s = usedSlot(); return DecodeSlot(payload, s) },
			func(s *wire.StreamSlot) error { *s = usedSlot(); return refDecodeSlot(payload, s) })
		checkMatchesReference(t, "meta", payload,
			func(m *wire.StreamMeta) error { return DecodeMeta(payload, m) },
			func(m *wire.StreamMeta) error { return refDecodeMeta(payload, m) })
		checkMatchesReference(t, "done", payload,
			func(d *wire.StreamDone) error { return DecodeDone(payload, d) },
			func(d *wire.StreamDone) error { return refDecodeDone(payload, d) })
		checkMatchesReference(t, "error", payload,
			func(s *string) (err error) { *s, err = DecodeError(payload); return err },
			func(s *string) (err error) { *s, err = refDecodeError(payload); return err })
		checkMatchesReference(t, "request", payload,
			func(r *wire.RouteRequest) error { return DecodeRequest(payload, r) },
			func(r *wire.RouteRequest) error { return refDecodeRequest(payload, r) })
		checkMatchesReference(t, "response", payload,
			func(r *wire.RouteResponse) error { return DecodeResponse(payload, r) },
			func(r *wire.RouteResponse) error { return refDecodeResponse(payload, r) })
	})
}

// checkMatchesReference decodes payload with the codec's decoder and the
// reference into fresh values and compares verdicts, and fields on success.
func checkMatchesReference[T any](t *testing.T, kind string, payload []byte, decode, ref func(*T) error) {
	t.Helper()
	var got, want T
	err, refErr := decode(&got), ref(&want)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s %x: decode error %v, reference error %v", kind, payload, err, refErr)
	}
	if err != nil {
		if !errors.Is(err, ErrCorruptFrame) || !errors.Is(refErr, ErrCorruptFrame) {
			t.Fatalf("%s %x: errors %v and %v, want ErrCorruptFrame", kind, payload, err, refErr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %x: decoded\n %+v\nreference decoded\n %+v", kind, payload, got, want)
	}
}

// usedSlot is a record a stream loop has already decoded into: its Sends
// and Recvs hold stale elements and spare capacity.
func usedSlot() wire.StreamSlot {
	s := randomSlot(rand.New(rand.NewSource(9)), 8)
	s.Sends = append(make([]popsnet.Send, 0, 32), s.Sends...)
	s.Recvs = append(make([]popsnet.Recv, 0, 32), s.Recvs...)
	return s
}

// referenceSeedPayloads is the seed corpus of the differential fuzzer: one
// payload of every frame type and every prefix of each (truncation at every
// byte), the slot and request blocks with a field spelled as an overlong
// varint, and varints of 10 and 11 bytes — the longest binary.Uvarint
// accepts and one past it.
func referenceSeedPayloads() [][]byte {
	e := GetEncoder()
	defer PutEncoder(e)
	payloadOf := func(frame []byte) []byte {
		_, payload, err := NewDecoder(bytes.NewReader(frame)).ReadFrame()
		if err != nil {
			panic(err)
		}
		return append([]byte(nil), payload...)
	}
	slot := randomSlot(rand.New(rand.NewSource(11)), 6)
	hrel := servedHRelation(2, 2, 2)
	// Negative ints are not a valid plan but a valid frame: they pin the
	// zigzag decode.
	faulty := wire.RouteRequest{D: 4, G: 4, Workload: wire.WorkloadFaultyPermutation, Pi: []int{3, -1, 0, 200},
		Pis: [][]int{{1, 0}, {}}, Faults: &wire.FaultSet{Couplers: []wire.Coupler{{B: 1, A: 2}}, Groups: []int{-3}}}
	sched := &popsnet.Schedule{Net: popsnet.Network{D: 2, G: 2}, Slots: []popsnet.Slot{
		{Sends: []popsnet.Send{{Src: 0, DestGroup: 1, Packet: 200}}, Recvs: []popsnet.Recv{{Proc: 3, SrcGroup: 0}}}}}
	valid := [][]byte{
		payloadOf(e.AppendSlot(&slot)),
		payloadOf(e.AppendMeta(&wire.StreamMeta{D: 16, G: 16, Workload: "hrelation", Slots: 8, Fragments: 8,
			Strategy: "theorem2", Fingerprint: "00ff", Cached: true, RequestID: "r"})),
		payloadOf(e.AppendDone(&wire.StreamDone{Slots: 8, Fragments: 8})),
		payloadOf(e.AppendError("backend on fire")),
		payloadOf(e.AppendRequest(&hrel)),
		payloadOf(e.AppendRequest(&faulty)),
		payloadOf(e.AppendResponse(&wire.RouteResponse{D: 2, G: 2, RequestID: "id", Plans: []wire.PlanResult{
			{Strategy: "theorem2", Slots: 1, Rounds: 1, Schedule: sched},
			{Error: "unroutable", Unroutable: &wire.UnroutableInfo{Packet: 1, SeveredSrc: true}}}})),
	}
	var seeds [][]byte
	for _, p := range valid {
		for n := 0; n <= len(p); n++ {
			seeds = append(seeds, p[:n])
		}
	}
	// A slot with one send whose packet is 5 spelled in two and in three
	// bytes, and whose source is the largest 10-byte uvarint.
	seeds = append(seeds,
		[]byte{0, 1, 0, 1, 1, 0, 0, 0x85, 0x00, 0},
		[]byte{0, 1, 0, 1, 1, 0, 0, 0x85, 0x80, 0x00, 0},
		append(append([]byte{0, 1, 0, 1, 1}, bytes.Repeat([]byte{0xff}, 9)...), 0x01, 0, 0, 0),
		append(append([]byte{0, 1, 0, 1, 1}, bytes.Repeat([]byte{0xff}, 9)...), 0x02, 0, 0, 0),
		append(append([]byte{0, 1, 0, 1, 1}, bytes.Repeat([]byte{0x80}, 10)...), 0x00, 0, 0, 0),
	)
	// A request whose pair source and Pi element take 10 and 11 bytes.
	head := []byte{1, 1, 0, 0, 0, 0, 0}
	seeds = append(seeds,
		append(append(append(head[:7:7], 1), bytes.Repeat([]byte{0xfe}, 9)...), 0x01, 0, 0),
		append(append(append(head[:7:7], 1), bytes.Repeat([]byte{0xfe}, 10)...), 0x01, 0, 0),
		append(append(append(head[:7:7], 0, 0, 1), bytes.Repeat([]byte{0x81}, 9)...), 0x01, 2),
		append(append(append(head[:7:7], 0, 0, 1), bytes.Repeat([]byte{0x81}, 10)...), 0x01, 2),
	)
	return seeds
}
