package wirebin

import (
	"math/rand"
	"testing"

	"pops/internal/popsnet"
	"pops/internal/wire"
)

// The kernel benchmarks run the codec at the shapes the service streams and
// receives: a whole POPS(16,16) slot of 256 sends and 256 recvs (a
// stream-hrel response frame), a 1024-pair 4-relation on POPS(16,16) (its
// request), and a 1024-int permutation on POPS(16,64) (a cold-perm request).
// Each reports ns/op, B/op and MB/s over the frame's bytes.

// servedSlot is a whole slot of POPS(d,g): every processor sends one packet
// and receives one, with sources, groups and packets spread over the full
// range so the varints take their served one- and two-byte widths.
func servedSlot(d, g int) wire.StreamSlot {
	n := d * g
	rng := rand.New(rand.NewSource(16))
	packets, procs := rng.Perm(n), rng.Perm(n)
	s := wire.StreamSlot{Slot: 5, Color: -1, Final: true,
		Sends: make([]popsnet.Send, n), Recvs: make([]popsnet.Recv, n)}
	for i := range n {
		s.Sends[i] = popsnet.Send{Src: i, DestGroup: procs[i] / d, Packet: packets[i]}
		s.Recvs[i] = popsnet.Recv{Proc: procs[i], SrcGroup: i / d}
	}
	return s
}

// servedHRelation is an h-relation request on POPS(d,g): h random
// permutations of the n = d·g processors, n·h src/dst pairs.
func servedHRelation(d, g, h int) wire.RouteRequest {
	n := d * g
	rng := rand.New(rand.NewSource(4))
	req := wire.RouteRequest{D: d, G: g, Workload: wire.WorkloadHRelation}
	for range h {
		for src, dst := range rng.Perm(n) {
			req.Requests = append(req.Requests, wire.Request{Src: src, Dst: dst})
		}
	}
	return req
}

// servedPermutation is a permutation request on POPS(d,g).
func servedPermutation(d, g int) wire.RouteRequest {
	return wire.RouteRequest{D: d, G: g, Pi: rand.New(rand.NewSource(64)).Perm(d * g)}
}

var (
	benchFrame []byte
	benchErr   error
)

func BenchmarkSlotCodec(b *testing.B) {
	slot := servedSlot(16, 16)
	e := GetEncoder()
	defer PutEncoder(e)
	frame := append([]byte(nil), e.AppendSlot(&slot)...)
	_, payload := decodeOne(b, frame)

	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for b.Loop() {
			benchFrame = e.AppendSlot(&slot)
		}
	})
	b.Run("decode-reused", func(b *testing.B) {
		var out wire.StreamSlot
		benchErr = DecodeSlot(payload, &out)
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for b.Loop() {
			benchErr = DecodeSlot(payload, &out)
		}
	})
	b.Run("decode-fresh", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for b.Loop() {
			var out wire.StreamSlot
			benchErr = DecodeSlot(payload, &out)
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
}

func BenchmarkRequestCodec(b *testing.B) {
	for _, c := range []struct {
		name string
		req  wire.RouteRequest
	}{
		{"hrelation-1024", servedHRelation(16, 16, 4)},
		{"pi-1024", servedPermutation(16, 64)},
	} {
		e := GetEncoder()
		frame := append([]byte(nil), e.AppendRequest(&c.req)...)
		_, payload := decodeOne(b, frame)
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			for b.Loop() {
				benchFrame = e.AppendRequest(&c.req)
			}
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			for b.Loop() {
				var out wire.RouteRequest
				benchErr = DecodeRequest(payload, &out)
			}
		})
		PutEncoder(e)
		if benchErr != nil {
			b.Fatal(benchErr)
		}
	}
}
