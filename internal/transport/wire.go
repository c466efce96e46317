package transport

// Wire format of the TCP backend. Every message on every connection —
// worker↔coordinator and worker↔worker — is one length-prefixed binary
// frame:
//
//	uint32 big-endian: length of the rest of the frame (type + payload)
//	uint8:             frame type (frame* constants)
//	payload:           type-specific, see below
//
// Payload encodings (all integers big-endian):
//
//	frameHello          uint16 addrLen, addr       worker's mesh listen address
//	frameAssign         uint32 rank, uint32 size, then size × (uint16 addrLen, addr)
//	frameMeshHello      uint32 rank                dialer identifies itself
//	frameReady          (empty)                    mesh fully connected
//	frameStart          (empty)                    all workers ready; world is live
//	frameData           8 bytes per float64 (IEEE-754 bits)
//	frameBarrierEnter   uint64 seq
//	frameBarrierRelease uint64 seq, uint32 nFailed
//	framePeerFailed     uint32 rank
//	frameGoodbye        (empty)                    clean departure
//	framePing           uint64 nanos               coordinator heartbeat probe
//	framePong           uint64 nanos               worker heartbeat reply (echo)
//	frameRejoinAssign   uint32 rank, uint32 size, size × (uint16 addrLen, addr),
//	                    size × uint8 live          replacement's rank + mesh map
//	framePeerJoined     uint32 rank, uint16 addrLen, addr
//	                                               a replacement joined; dial it
//
// float64 payloads travel as raw IEEE-754 bit patterns, so ±Inf, NaN, and
// signed zero round-trip exactly and a value computed on one rank is
// bit-identical on another — the property the REWL golden tests and the
// cross-process determinism checks rest on.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Frame types.
const (
	frameData byte = iota + 1
	frameHello
	frameAssign
	frameMeshHello
	frameReady
	frameStart
	frameBarrierEnter
	frameBarrierRelease
	framePeerFailed
	frameGoodbye
	framePing
	framePong
	frameRejoinAssign
	framePeerJoined
)

// maxFrameLen bounds a frame so a corrupt or hostile length prefix cannot
// allocate unbounded memory. 1 GiB comfortably covers any gradient or DOS
// payload this codebase ships.
const maxFrameLen = 1 << 30

// frameChunk is how much of a frame's body readFrame allocates ahead of
// the bytes that arrive: a frame up to this size is one allocation, and a
// length prefix with no body behind it costs at most this much.
const frameChunk = 64 << 10

// writeFrame writes one frame. Callers serialize writes per connection.
// The header is built in w's free buffer space: a local array handed to
// Write would escape through the io.Writer w wraps.
func writeFrame(w *bufio.Writer, typ byte, payload []byte) error {
	if w.Available() < 5 {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	hdr := binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(1+len(payload)))
	if _, err := w.Write(append(hdr, typ)); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame. The body grows by at most frameChunk bytes
// ahead of what has been read, so memory follows the bytes that arrive,
// not the length the prefix claims.
func readFrame(r *bufio.Reader) (typ byte, payload []byte, err error) {
	// The length prefix is read in place from r's buffer: a local array
	// handed to io.ReadFull would escape through its io.Reader argument.
	// As from io.ReadFull, a stream that ends inside the prefix reports
	// io.ErrUnexpectedEOF and one that ends before it io.EOF.
	hdr, err := r.Peek(4)
	if len(hdr) < 4 {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	r.Discard(4) //nolint:errcheck // the 4 bytes are buffered
	if n < 1 || n > maxFrameLen {
		return 0, nil, fmt.Errorf("transport: frame length %d outside [1, %d]", n, maxFrameLen)
	}
	body := make([]byte, 0, min(n, frameChunk))
	for len(body) < n {
		k := min(n-len(body), frameChunk)
		body = slices.Grow(body, k)[:len(body)+k]
		if _, err = io.ReadFull(r, body[len(body)-k:]); err != nil {
			return 0, nil, err
		}
	}
	return body[0], body[1:], nil
}

// encodeFloats packs float64s as raw IEEE-754 bits.
func encodeFloats(data []float64) []byte {
	out := make([]byte, 8*len(data))
	for i, v := range data {
		binary.BigEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// decodeFloats unpacks a frameData payload.
func decodeFloats(payload []byte) ([]float64, error) {
	if len(payload)%8 != 0 {
		return nil, fmt.Errorf("transport: data payload of %d bytes is not a float64 array", len(payload))
	}
	out := make([]float64, len(payload)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(payload[8*i:]))
	}
	return out, nil
}

// encodeString packs a uint16-length-prefixed string.
func encodeString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// decodeString unpacks a uint16-length-prefixed string, returning the rest.
func decodeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("transport: truncated string length")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, fmt.Errorf("transport: truncated string body (%d < %d)", len(b), n)
	}
	return string(b[:n]), b[n:], nil
}
