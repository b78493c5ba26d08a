package deploy

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/carbonedge/carbonedge/internal/engine"
)

// The frame codec behind WriteMessage and ReadMessage.
//
// A frame is a 4-byte big-endian length n, then n bytes: the body, then a
// 4-byte little-endian CRC-32C (Castagnoli) of the body. The checksum is
// verified before anything decodes the body, so a corrupted frame is always
// a ProtocolError, never a message with a silently altered field.
//
// The body's first byte selects its decoder. '{' opens a JSON-encoded
// Message: handshake and control traffic, which stays inspectable. The
// MsgType of one of the four per-slot messages (Assign, Report, ShardAssign,
// ShardDelta) opens that type's fixed-layout binary body. Each type has
// exactly one encoding: a JSON body spelling a per-slot type is rejected,
// and so is any other first byte.
//
// Binary bodies are fixed-width little-endian: ints as int64, floats as
// their IEEE-754 bits (so every float64 crosses exactly, NaN included),
// bools as one byte, and byte strings and lists as a uint32 count followed
// by the elements. A type encodes only the fields it carries, after its
// type byte:
//
//	Assign       Slot ModelID Switch Weights
//	Report       Slot EdgeID ModelID AvgLoss Correct Samples EnergyKWh CompSeconds
//	ShardAssign  Slot Start Count Arms Downloads
//	ShardDelta   Slot, a bool for Delta != nil, then Delta.Start and Delta.Edges;
//	             each edge is Loss InferLoss Compute Correct Samples InferKWh
//	             TransferKWh Retries Served WentDown DownError
//
// Decoding is strict, so it accepts only what the encoder writes: a count is
// checked against the bytes left before anything is allocated, a bool must
// be 0 or 1, and trailing bytes are an error. Every binary body that decodes
// therefore re-encodes to the same bytes.

// castagnoli is the CRC-32C table; crc32 uses the SSE4.2 / ARMv8 CRC
// instructions for it where the CPU has them.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Widths of the frame trailer and of the binary layout's fields.
const (
	crcSize   = 4
	wordSize  = 8 // an int64 or a float64's bits
	countSize = 4 // a uint32 list or byte-string length
	// edgeSize is an EdgeDelta's encoding without its DownError bytes: eight
	// words, two bools and DownError's count.
	edgeSize = 8*wordSize + 2 + countSize
)

// binaryBody reports whether messages of type t travel as binary bodies.
func binaryBody(t MsgType) bool {
	switch t {
	case MsgAssign, MsgReport, MsgShardAssign, MsgShardDelta:
		return true
	}
	return false
}

// encodeFrame returns m's whole frame: header, body, checksum.
func encodeFrame(m *Message) ([]byte, error) {
	var body []byte // the JSON body; binary bodies are appended in place
	n := 0
	if binaryBody(m.Type) {
		n = binarySize(m)
	} else {
		var err error
		if body, err = json.Marshal(m); err != nil {
			return nil, fmt.Errorf("deploy: marshal: %w", err)
		}
		n = len(body)
	}
	// Checked before encoding, so a binary count can never overflow its
	// uint32.
	if n+crcSize > maxFrame {
		return nil, protocolErrorf("frame of %d bytes exceeds limit", n+crcSize)
	}
	frame := make([]byte, 4, 4+n+crcSize)
	if body != nil {
		frame = append(frame, body...)
	} else {
		frame = appendBinary(frame, m)
	}
	binary.BigEndian.PutUint32(frame, uint32(n+crcSize))
	return binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame[4:], castagnoli)), nil
}

// decodeFrame checks a frame's checksum, then decodes its body.
func decodeFrame(frame []byte) (*Message, error) {
	body, trailer := frame[:len(frame)-crcSize], frame[len(frame)-crcSize:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, protocolErrorf("frame checksum mismatch: %d-byte body sums to %08x, trailer says %08x", len(body), got, want)
	}
	switch {
	case len(body) == 0:
		return nil, protocolErrorf("empty frame body")
	case body[0] == '{':
		return decodeJSON(body)
	case binaryBody(MsgType(body[0])):
		return decodeBinary(body)
	}
	return nil, protocolErrorf("frame body starts with byte %#02x: neither JSON nor a binary message type", body[0])
}

// decodeJSON decodes a JSON body.
func decodeJSON(body []byte) (*Message, error) {
	var m Message
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, protocolErrorf("unmarshal: %v", err)
	}
	if m.Type < MsgHello || m.Type > MsgShardAdopt {
		return nil, protocolErrorf("unknown message type %d", m.Type)
	}
	if binaryBody(m.Type) {
		return nil, protocolErrorf("message type %d in a JSON body; it travels only as binary", m.Type)
	}
	// omitempty never writes an empty slice, so a list spelled "[]" decodes
	// to nil, as an absent one does: a message then re-encodes to itself, and
	// no validator can tell the two spellings apart.
	m.Models, m.Weights, m.Arms, m.Downloads = nilIfEmpty(m.Models), nilIfEmpty(m.Weights), nilIfEmpty(m.Arms), nilIfEmpty(m.Downloads)
	if c := m.Checkpoint; c != nil {
		c.Down, c.DownErrors, c.JitterDraws = nilIfEmpty(c.Down), nilIfEmpty(c.DownErrors), nilIfEmpty(c.JitterDraws)
	}
	return &m, nil
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// binarySize is the length of m's binary body.
func binarySize(m *Message) int {
	switch m.Type {
	case MsgAssign:
		return 1 + 2*wordSize + 1 + countSize + len(m.Weights)
	case MsgReport:
		return 1 + 8*wordSize
	case MsgShardAssign:
		return 1 + 3*wordSize + countSize + wordSize*len(m.Arms) + countSize + len(m.Downloads)
	}
	n := 1 + wordSize + 1
	if d := m.Delta; d != nil {
		n += wordSize + countSize + edgeSize*len(d.Edges)
		for i := range d.Edges {
			n += len(d.Edges[i].DownError)
		}
	}
	return n
}

// appendBinary appends m's binary body to b.
func appendBinary(b []byte, m *Message) []byte {
	b = appendInt(append(b, byte(m.Type)), m.Slot)
	switch m.Type {
	case MsgAssign:
		b = appendInt(b, m.ModelID)
		b = appendBool(b, m.Switch)
		b = appendCount(b, len(m.Weights))
		b = append(b, m.Weights...)
	case MsgReport:
		b = appendInt(b, m.EdgeID)
		b = appendInt(b, m.ModelID)
		b = appendFloat(b, m.AvgLoss)
		b = appendInt(b, m.Correct)
		b = appendInt(b, m.Samples)
		b = appendFloat(b, m.EnergyKWh)
		b = appendFloat(b, m.CompSeconds)
	case MsgShardAssign:
		b = appendInt(b, m.Start)
		b = appendInt(b, m.Count)
		b = appendCount(b, len(m.Arms))
		for _, a := range m.Arms {
			b = appendInt(b, a)
		}
		b = appendCount(b, len(m.Downloads))
		for _, d := range m.Downloads {
			b = appendBool(b, d)
		}
	case MsgShardDelta:
		b = appendBool(b, m.Delta != nil)
		if d := m.Delta; d != nil {
			b = appendInt(b, d.Start)
			b = appendCount(b, len(d.Edges))
			for i := range d.Edges {
				e := &d.Edges[i]
				b = appendFloat(b, e.Loss)
				b = appendFloat(b, e.InferLoss)
				b = appendFloat(b, e.Compute)
				b = appendInt(b, e.Correct)
				b = appendInt(b, e.Samples)
				b = appendFloat(b, e.InferKWh)
				b = appendFloat(b, e.TransferKWh)
				b = appendInt(b, e.Retries)
				b = appendBool(b, e.Served)
				b = appendBool(b, e.WentDown)
				b = appendCount(b, len(e.DownError))
				b = append(b, e.DownError...)
			}
		}
	}
	return b
}

func appendInt(b []byte, v int) []byte { return binary.LittleEndian.AppendUint64(b, uint64(int64(v))) }

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendCount(b []byte, n int) []byte { return binary.LittleEndian.AppendUint32(b, uint32(n)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// decodeBinary decodes a binary body whose first byte is a binary type.
func decodeBinary(body []byte) (*Message, error) {
	r := wireReader{b: body, off: 1}
	m := &Message{Type: MsgType(body[0])}
	m.Slot = r.int()
	switch m.Type {
	case MsgAssign:
		m.ModelID = r.int()
		m.Switch = r.bool()
		m.Weights = r.bytes()
	case MsgReport:
		m.EdgeID = r.int()
		m.ModelID = r.int()
		m.AvgLoss = r.float()
		m.Correct = r.int()
		m.Samples = r.int()
		m.EnergyKWh = r.float()
		m.CompSeconds = r.float()
	case MsgShardAssign:
		m.Start = r.int()
		m.Count = r.int()
		if n := r.count(wordSize); n > 0 {
			m.Arms = make([]int, n)
			for i := range m.Arms {
				m.Arms[i] = r.int()
			}
		}
		if n := r.count(1); n > 0 {
			m.Downloads = make([]bool, n)
			for i := range m.Downloads {
				m.Downloads[i] = r.bool()
			}
		}
	case MsgShardDelta:
		if r.bool() {
			m.Delta = &engine.SlotDelta{Start: r.int()}
			if n := r.count(edgeSize); n > 0 {
				m.Delta.Edges = make([]engine.EdgeDelta, n)
				for i := range m.Delta.Edges {
					e := &m.Delta.Edges[i]
					e.Loss = r.float()
					e.InferLoss = r.float()
					e.Compute = r.float()
					e.Correct = r.int()
					e.Samples = r.int()
					e.InferKWh = r.float()
					e.TransferKWh = r.float()
					e.Retries = r.int()
					e.Served = r.bool()
					e.WentDown = r.bool()
					e.DownError = string(r.bytes())
				}
			}
		}
	}
	if r.err == nil && r.off != len(body) {
		r.fail("%d trailing bytes", len(body)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}

// wireReader reads a binary body front to back. The first failure sticks:
// every later read returns a zero value, and err holds the failure.
type wireReader struct {
	b   []byte
	off int // next byte to read
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = protocolErrorf("type %d body: %s", r.b[0], fmt.Sprintf(format, args...))
	}
}

// take returns the next n bytes, or nil once the body is exhausted.
func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b)-r.off < n {
		r.fail("truncated: %d bytes wanted, %d left", n, len(r.b)-r.off)
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off : r.off]
}

func (r *wireReader) int() int {
	s := r.take(wordSize)
	if s == nil {
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(s))
	if int64(int(v)) != v {
		r.fail("int %d overflows this platform's int", v)
		return 0
	}
	return int(v)
}

func (r *wireReader) float() float64 {
	s := r.take(wordSize)
	if s == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(s))
}

func (r *wireReader) bool() bool {
	s := r.take(1)
	if s == nil {
		return false
	}
	if s[0] > 1 {
		r.fail("bool byte is %d, want 0 or 1", s[0])
		return false
	}
	return s[0] == 1
}

// count reads a list length and checks that the bytes left can hold that
// many elements of at least size bytes each, so a forged count cannot make
// the decoder allocate more than the frame already holds.
func (r *wireReader) count(size int) int {
	s := r.take(countSize)
	if s == nil {
		return 0
	}
	n := binary.LittleEndian.Uint32(s)
	if left := len(r.b) - r.off; uint64(n)*uint64(size) > uint64(left) {
		r.fail("count %d of %d-byte elements overruns the %d bytes left", n, size, left)
		return 0
	}
	return int(n)
}

// bytes reads a byte string. It aliases the body, which ReadMessage
// allocates per frame and never reuses; an empty string reads as nil.
func (r *wireReader) bytes() []byte {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	return r.take(n)
}
