// Package wirebin is the binary wire codec of the serving stack: a compact,
// length-prefixed framing for the payloads POST /route and POST /route/stream
// otherwise speak as JSON/NDJSON (internal/wire). It exists for one loop —
// the per-slot-record stream encode on the hottest serving path — where
// json.Marshal plus the wire.StreamRecord pointer fields cost allocations and
// time the library side already proved unnecessary (the arena Factorizer).
//
// # Frame layout
//
//	frame   := uvarint(len(payload)) payload
//	payload := version(1 byte) type(1 byte) fields...
//
// The length prefix covers the payload only, so a relay can forward frames
// verbatim without understanding the fields, and a reader can skip frame
// types it does not know. Version is a single byte (currently 1); a decoder
// rejects versions it does not speak, which is the forward-evolution hinge:
// new field layouts bump the version, new record kinds add frame types.
//
// Integer fields are unsigned varints (binary.AppendUvarint); the one field
// that can be negative (a slot fragment's Color, -1 for whole-slot
// fragments) is zigzag-encoded. Strings and byte blobs are uvarint length +
// bytes. Booleans travel in a flags byte.
//
// # Frame types
//
// The stream frames mirror wire.StreamRecord's four record kinds — meta,
// slot, done, error — and two more carry the unary bodies: request
// (wire.RouteRequest) and response (wire.RouteResponse).
//
// # Allocation contract
//
// Encoding is zero-allocation in steady state: an Encoder owns one buffer,
// grown to the high-water mark and reused for every frame; Append* methods
// return a slice aliasing it, valid until the next call. Decoding is
// decode-into-caller-owned-structs: DecodeSlot refills the caller's
// wire.StreamSlot reusing its Sends/Recvs capacity, so a warmed
// ReadFrame+DecodeSlot loop allocates nothing per record (guarded by
// TestWireEncodeAllocBudget under make alloc-guard). Every block a decoder
// fills (sends, recvs, request pairs, couplers, ints) is sized once from its
// count, after the count is checked against the bytes left at the element's
// minimum encoded size, so a corrupt count fails before it sizes anything.
// Frames with string fields (meta, error, request, response) allocate for
// the strings; they occur once per stream or once per call, never per slot
// record.
//
// # Block loops
//
// The per-element loops are the codec's hot path: a 256-send slot is 1,500
// varints. Each block decodes in one loop over a local byte slice. A one-
// or two-byte varint (any value below 2^14: at the served shapes, every
// processor, group and packet index) decodes inline through uvarint12;
// anything longer, or malformed, goes to binary.Uvarint out of line, and a
// malformed one is the loop's single error exit. Encoding mirrors it: an
// Append* method appends to a local slice, element fields through the
// inline appendUvarint12. A reader whose read failed is emptied, so the
// scalar reads around the blocks stay sticky without re-checking the error.
//
// # Negotiation
//
// The codec is negotiated end to end via standard content negotiation:
// a client that wants binary responses sends Accept: application/x-pops-bin
// (ContentType); a server that speaks it answers with that Content-Type,
// and one that does not keeps answering JSON/NDJSON — the curl and debug
// surface. Accepts implements the server-side check. Request bodies name
// their codec in Content-Type the same way, and DecodeRequestBody is the one
// reader of both framings.
package wirebin

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
)

// ContentType is the negotiated media type of the binary codec, offered by
// clients in Accept and announced by servers in Content-Type, and named in
// Content-Type by a request body in the binary framing. A server answers
// binary only to an Accept that names it (wildcards never select it) and
// reads any other request body as JSON; the Go client sends binary request
// bodies by default and falls back to JSON when a server refuses them.
const ContentType = "application/x-pops-bin"

// Version is the frame version this package encodes. Decoders reject any
// other value, so layout changes can never be misparsed as the old layout.
const Version = 1

// Frame types. The stream types mirror wire.StreamRecord's kinds; request
// and response carry the unary /route bodies.
const (
	FrameMeta     byte = 1
	FrameSlot     byte = 2
	FrameDone     byte = 3
	FrameError    byte = 4
	FrameRequest  byte = 5
	FrameResponse byte = 6
)

// MaxFrame bounds a single frame's payload, mirroring the HTTP layers'
// request-body bound: a length prefix past it is corruption (or an attack),
// not a plan.
const MaxFrame = 64 << 20

// ErrCorruptFrame tags every malformed-input failure of the decoder —
// truncated payloads, over-long length prefixes, unknown versions, counts
// that exceed the remaining bytes. errors.Is(err, ErrCorruptFrame) holds for
// all of them, so callers surface one typed verdict instead of string
// matching.
var ErrCorruptFrame = errors.New("wirebin: corrupt frame")

// Accepts reports whether an Accept header value asks for the binary codec:
// some media range names ContentType with a nonzero quality. An empty or
// unknown Accept keeps the JSON/NDJSON default — exactly the behavior old
// clients get without changing a byte.
func Accepts(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mediaRange, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if !strings.EqualFold(strings.TrimSpace(mediaRange), ContentType) {
			continue
		}
		if q, ok := qualityParam(params); ok && q == 0 {
			return false // explicitly refused: "application/x-pops-bin;q=0"
		}
		return true
	}
	return false
}

// qualityParam extracts a q= parameter from a media range's parameter list.
func qualityParam(params string) (q float64, ok bool) {
	for _, p := range strings.Split(params, ";") {
		k, v, found := strings.Cut(strings.TrimSpace(p), "=")
		if !found || !strings.EqualFold(strings.TrimSpace(k), "q") {
			continue
		}
		var val float64
		if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f", &val); err == nil {
			return val, true
		}
	}
	return 0, false
}

// IsContentType reports whether a Content-Type header value names the binary
// codec (ignoring parameters).
func IsContentType(ct string) bool {
	mediaType, _, _ := strings.Cut(ct, ";")
	return strings.EqualFold(strings.TrimSpace(mediaType), ContentType)
}

// lenReserve is the room reserved at the front of an encoder's buffer for
// the frame's uvarint length prefix (a MaxFrame payload needs 4 bytes; 5
// covers any uint32).
const lenReserve = 5

// Encoder builds frames into one reusable buffer. The slice returned by an
// Append* method aliases that buffer and is valid until the next call.
// An Encoder is not safe for concurrent use; pool them with GetEncoder /
// PutEncoder (one per stream or per response write).
type Encoder struct {
	buf []byte
}

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder checks an Encoder out of the package pool.
func GetEncoder() *Encoder { return encoderPool.Get().(*Encoder) }

// PutEncoder returns an Encoder to the pool. The caller must be done with
// every slice an Append* method returned.
func PutEncoder(e *Encoder) { encoderPool.Put(e) }

// begin returns the encoder's buffer reset to the reserved length prefix
// plus the version and type bytes. An Append* method appends its fields to
// that local slice and hands it to finish, so the field loops never store
// through e.buf.
func (e *Encoder) begin(typ byte) []byte {
	if cap(e.buf) < lenReserve+2 {
		e.buf = make([]byte, lenReserve, 256)
	}
	return append(e.buf[:lenReserve], Version, typ)
}

// finish keeps b as the encoder's buffer, writes the length prefix
// immediately before the payload and returns the completed frame.
func (e *Encoder) finish(b []byte) []byte {
	e.buf = b
	payload := len(b) - lenReserve
	var tmp [lenReserve]byte
	n := binary.PutUvarint(tmp[:], uint64(payload))
	start := lenReserve - n
	copy(b[start:lenReserve], tmp[:n])
	return b[start:]
}

// appendUvarint12 appends v as a uvarint, writing the one- and two-byte
// cases (v below 2^14) inline and leaving longer ones to
// binary.AppendUvarint. The block loops encode every element field through
// it.
func appendUvarint12(b []byte, v uint64) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	if v < 0x4000 {
		return append(b, byte(v)|0x80, byte(v>>7))
	}
	return binary.AppendUvarint(b, v)
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendInts(b []byte, vals []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(vals)))
	for _, v := range vals {
		b = appendUvarint12(b, uint64(v)<<1^uint64(v>>63)) // zigzag, as binary.AppendVarint
	}
	return b
}

// Decoder reads frames off an io.Reader, buffering reads and reassembling
// frames that span arbitrary read boundaries (HTTP chunk boundaries
// included — a frame's bytes may arrive in any number of pieces). The
// payload returned by ReadFrame aliases the Decoder's internal buffer and is
// valid until the next ReadFrame. Not safe for concurrent use; pool with
// GetDecoder / PutDecoder.
type Decoder struct {
	br  *bufio.Reader
	buf []byte
}

var decoderPool = sync.Pool{New: func() any { return &Decoder{br: bufio.NewReaderSize(nil, 4096)} }}

// GetDecoder checks a Decoder out of the package pool and points it at r.
func GetDecoder(r io.Reader) *Decoder {
	d := decoderPool.Get().(*Decoder)
	d.br.Reset(r)
	return d
}

// PutDecoder returns a Decoder to the pool. The caller must be done with the
// last payload ReadFrame returned.
func PutDecoder(d *Decoder) {
	d.br.Reset(nil)
	decoderPool.Put(d)
}

// NewDecoder returns an unpooled Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{br: bufio.NewReaderSize(r, 4096)}
}

// ReadFrame reads one complete frame and returns its type and payload (the
// bytes after the version and type bytes, aliasing the Decoder's buffer).
// io.EOF is returned untouched at a clean frame boundary; a frame truncated
// mid-way decodes as an ErrCorruptFrame-tagged error, never a silent short
// read.
func (d *Decoder) ReadFrame() (typ byte, payload []byte, err error) {
	n, err := binary.ReadUvarint(d.br)
	if err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: length prefix: %v", ErrCorruptFrame, err)
	}
	if n < 2 || n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: payload length %d out of range", ErrCorruptFrame, n)
	}
	if cap(d.buf) < int(n) {
		d.buf = make([]byte, n)
	}
	d.buf = d.buf[:n]
	if _, err := io.ReadFull(d.br, d.buf); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated payload (%d bytes promised): %v", ErrCorruptFrame, n, err)
	}
	if d.buf[0] != Version {
		return 0, nil, fmt.Errorf("%w: unknown frame version %d (this codec speaks %d)", ErrCorruptFrame, d.buf[0], Version)
	}
	return d.buf[1], d.buf[2:], nil
}

// reader is a cursor over one frame payload. A failed read records an
// ErrCorruptFrame-tagged error and empties the cursor, so every later read
// fails as well without re-checking err, and decode functions check once at
// the end.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorruptFrame}, args...)...)
	}
	r.b = nil
}

// uvarint12 decodes a one- or two-byte uvarint from the front of b and
// returns it with its length: any value below 2^14, which at the served
// shapes is every count, processor, group and packet index. It returns
// n == 0 for a longer or malformed varint, which the caller hands to
// binary.Uvarint out of line: with no call in it, uvarint12 stays under the
// inliner's budget, so the block loops decode the common case without a
// call. Like binary.Uvarint it accepts a non-minimal spelling (0x80 0x00
// reads as 0 in two bytes).
func uvarint12(b []byte) (v uint64, n int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	if len(b) > 1 && b[1] < 0x80 {
		return uint64(b[0]&0x7f) | uint64(b[1])<<7, 2
	}
	return 0, 0
}

// unzigzag maps a zigzag-encoded uvarint back to its signed value, as
// binary.Varint does.
func unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader) uvarint() uint64 {
	v, n := uvarint12(r.b)
	if n == 0 {
		if v, n = binary.Uvarint(r.b); n <= 0 {
			r.fail("truncated uvarint")
			return 0
		}
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) varint() int64 {
	v, n := uvarint12(r.b)
	if n == 0 {
		if v, n = binary.Uvarint(r.b); n <= 0 {
			r.fail("truncated varint")
			return 0
		}
	}
	r.b = r.b[n:]
	return unzigzag(v)
}

// count reads a uvarint element count and sanity-checks it against the bytes
// that could possibly hold it (at least minSize bytes per element), so a
// corrupt count can never drive a huge allocation.
func (r *reader) count(minSize int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minSize) {
		r.fail("count %d of %d-byte elements exceeds remaining %d bytes", n, minSize, len(r.b))
		return 0
	}
	return int(n)
}

func (r *reader) byteVal() byte {
	if len(r.b) == 0 {
		r.fail("truncated byte")
		return 0
	}
	b := r.b[0]
	r.b = r.b[1:]
	return b
}

func (r *reader) str() string {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("string length %d exceeds remaining %d bytes", n, len(r.b))
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// ints reads a block of zigzag varints, sized once from its count and
// decoded in one loop over a local slice. An empty block reads as nil.
func (r *reader) ints() []int {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	b := r.b
	for i := range out {
		v, k := uvarint12(b)
		if k == 0 {
			if v, k = binary.Uvarint(b); k <= 0 {
				r.fail("truncated varint")
				return nil
			}
		}
		out[i], b = int(unzigzag(v)), b[k:]
	}
	r.b = b
	return out
}

// done asserts the payload was consumed exactly.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after payload", ErrCorruptFrame, len(r.b))
	}
	return nil
}
