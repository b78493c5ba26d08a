package deploy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// roundTripMessages are the edge-tier frames TestMessageRoundTrip sends
// through the codec; FuzzReadMessage seeds its corpus with them.
var roundTripMessages = []struct {
	name string
	msg  Message
}{
	{"hello", Message{Type: MsgHello, EdgeID: 3}},
	{"welcome", Message{Type: MsgWelcome, NumModels: 2, Models: []ModelMeta{
		{Name: "a", PhiKWh: 7e-8, SizeBytes: 100},
		{Name: "b", PhiKWh: 9e-8, SizeBytes: 200},
	}}},
	{"assign with weights", Message{Type: MsgAssign, Slot: 5, ModelID: 1, Switch: true, Weights: []byte{1, 2, 3}}},
	{"report", Message{Type: MsgReport, Slot: 5, EdgeID: 2, AvgLoss: 0.4, Correct: 30, Samples: 50, EnergyKWh: 1e-6, CompSeconds: 0.05}},
	{"done", Message{Type: MsgDone}},
	{"error", Message{Type: MsgError, Reason: "boom"}},
}

func TestMessageRoundTrip(t *testing.T) {
	for _, tt := range roundTripMessages {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteMessage(&buf, &tt.msg); err != nil {
				t.Fatalf("WriteMessage: %v", err)
			}
			got, err := ReadMessage(&buf)
			if err != nil {
				t.Fatalf("ReadMessage: %v", err)
			}
			if got.Type != tt.msg.Type || got.EdgeID != tt.msg.EdgeID ||
				got.Slot != tt.msg.Slot || got.ModelID != tt.msg.ModelID ||
				got.Switch != tt.msg.Switch || got.Reason != tt.msg.Reason {
				t.Errorf("round trip mismatch: %+v vs %+v", got, tt.msg)
			}
			if !bytes.Equal(got.Weights, tt.msg.Weights) {
				t.Error("weights mismatch")
			}
			if len(tt.msg.Models) != len(got.Models) {
				t.Error("models mismatch")
			}
		})
	}
}

func TestReadMessageErrors(t *testing.T) {
	// Truncated header.
	if _, err := ReadMessage(strings.NewReader("ab")); err == nil {
		t.Error("expected error for short header")
	}
	// Oversized frame.
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(maxFrame+1))
	buf.Write(hdr[:])
	if _, err := ReadMessage(&buf); err == nil {
		t.Error("expected error for oversized frame")
	}
	// Truncated body.
	buf.Reset()
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString("{}")
	if _, err := ReadMessage(&buf); err == nil {
		t.Error("expected error for short body")
	}
	// Invalid JSON.
	buf.Reset()
	binary.BigEndian.PutUint32(hdr[:], 3)
	buf.Write(hdr[:])
	buf.WriteString("{{{")
	if _, err := ReadMessage(&buf); err == nil {
		t.Error("expected error for bad json")
	}
	// Unknown type.
	buf.Reset()
	body := []byte(`{"type":99}`)
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)
	if _, err := ReadMessage(&buf); err == nil {
		t.Error("expected error for unknown type")
	}
	// A frame in the old format: a JSON body and no checksum trailer.
	buf.Reset()
	body = []byte(`{"type":1,"edgeId":3}`)
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)
	var pe *ProtocolError
	if _, err := ReadMessage(&buf); !errors.As(err, &pe) {
		t.Errorf("frame without a checksum: err = %v, want *ProtocolError", err)
	}
}

// frameBody wraps body in a valid header and checksum trailer.
func frameBody(body []byte) []byte {
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)+crcSize))
	frame = append(frame, body...)
	return binary.LittleEndian.AppendUint32(frame, crc32.Checksum(body, castagnoli))
}

// encodeBody returns m's frame body, without header and trailer.
func encodeBody(t testing.TB, m *Message) []byte {
	t.Helper()
	frame, err := encodeFrame(m)
	if err != nil {
		t.Fatal(err)
	}
	return frame[4 : len(frame)-crcSize]
}

// TestDecodeRejectsBadBodies feeds bodies under a valid checksum, so each
// case reaches the decoder itself: every non-canonical or foreign body is a
// fatal *ProtocolError.
func TestDecodeRejectsBadBodies(t *testing.T) {
	report := encodeBody(t, &roundTripMessages[3].msg)
	assign := encodeBody(t, &Message{Type: MsgAssign, Slot: 1, Weights: []byte{9}})
	shard := encodeBody(t, &Message{Type: MsgShardAssign, Arms: []int{1}, Downloads: []bool{true}})
	withByte := func(b []byte, i int, v byte) []byte {
		b = bytes.Clone(b)
		b[i] = v
		return b
	}
	cases := []struct {
		name string
		body []byte
		want string
	}{
		{"empty body", nil, "empty frame body"},
		{"bad json", []byte("{{{"), "unmarshal"},
		{"unknown json type", []byte(`{"type":99}`), "unknown message type 99"},
		{"report spelled as json", []byte(`{"type":4,"slot":1}`), "only as binary"},
		{"shard delta spelled as json", []byte(`{"type":10,"delta":{"start":0,"edges":[]}}`), "only as binary"},
		{"foreign first byte", []byte{byte(MsgDone), 0}, "neither JSON nor"},
		{"truncated report", report[:len(report)-1], "truncated"},
		{"trailing byte", append(bytes.Clone(report), 0), "1 trailing bytes"},
		{"bool byte 2", withByte(assign, 1+2*wordSize, 2), "want 0 or 1"},
		{"weights count overrun", withByte(assign, 1+2*wordSize+1, 2), "overruns"},
		{"arms count overrun", withByte(shard, 1+3*wordSize, 2), "overruns"},
		{"download bool byte 2", withByte(shard, len(shard)-1, 2), "want 0 or 1"},
		{"delta presence byte 2", withByte(encodeBody(t, &Message{Type: MsgShardDelta}), 1+wordSize, 2), "want 0 or 1"},
		{"delta edge count overrun", append(encodeBody(t, &Message{Type: MsgShardDelta, Delta: &engine.SlotDelta{}})[:1+wordSize+1+wordSize], 0xff, 0xff, 0xff, 0xff), "overruns"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ReadMessage(bytes.NewReader(frameBody(tt.body)))
			var pe *ProtocolError
			if !errors.As(err, &pe) || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("err = %v, want *ProtocolError containing %q", err, tt.want)
			}
		})
	}
}

func TestResumeFieldsRoundTrip(t *testing.T) {
	msg := Message{Type: MsgHello, EdgeID: 2, Resume: true, ResumeToken: "tok-2", DoneSlots: 17}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &msg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Resume || got.ResumeToken != "tok-2" || got.DoneSlots != 17 {
		t.Errorf("resume fields lost in transit: %+v", got)
	}
	// A plain hello keeps the resume fields off the wire entirely.
	buf.Reset()
	if err := WriteMessage(&buf, &Message{Type: MsgHello, EdgeID: 1}); err != nil {
		t.Fatal(err)
	}
	if s := buf.String(); strings.Contains(s, "resume") {
		t.Errorf("non-resume hello leaks resume fields: %s", s)
	}
}

func TestValidateReport(t *testing.T) {
	ok := Message{Type: MsgReport, Slot: 3, AvgLoss: 0.4, Correct: 3, Samples: 5, EnergyKWh: 1e-6, CompSeconds: 0.02}
	tests := []struct {
		name   string
		mutate func(*Message)
		valid  bool
	}{
		{"valid", func(*Message) {}, true},
		{"zero samples", func(m *Message) { m.Samples, m.Correct = 0, 0 }, true},
		{"wrong type", func(m *Message) { m.Type = MsgDone }, false},
		{"nan loss", func(m *Message) { m.AvgLoss = math.NaN() }, false},
		{"inf loss", func(m *Message) { m.AvgLoss = math.Inf(1) }, false},
		{"negative loss", func(m *Message) { m.AvgLoss = -0.1 }, false},
		{"nan energy", func(m *Message) { m.EnergyKWh = math.NaN() }, false},
		{"negative energy", func(m *Message) { m.EnergyKWh = -1e-9 }, false},
		{"negative compute", func(m *Message) { m.CompSeconds = -0.01 }, false},
		{"nan compute", func(m *Message) { m.CompSeconds = math.NaN() }, false},
		{"negative samples", func(m *Message) { m.Samples = -1 }, false},
		{"negative correct", func(m *Message) { m.Correct = -1 }, false},
		{"correct exceeds samples", func(m *Message) { m.Correct = 6 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := ok
			tt.mutate(&m)
			err := ValidateReport(&m)
			if tt.valid {
				if err != nil {
					t.Fatalf("ValidateReport: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("expected rejection")
			}
			// Invalid physics is a peer bug: fatal, never retried.
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Errorf("err = %v, want *ProtocolError", err)
			}
			if Transient(err) {
				t.Error("validation failures must not be transient")
			}
		})
	}
}

func TestTransientTaxonomy(t *testing.T) {
	timeoutErr := &net.OpError{Op: "read", Err: &timeoutError{}}
	tests := []struct {
		name      string
		err       error
		transient bool
	}{
		{"nil", nil, false},
		{"eof", io.EOF, true},
		{"mid-frame eof", io.ErrUnexpectedEOF, true},
		{"wrapped eof", fmt.Errorf("deploy: read body: %w", io.ErrUnexpectedEOF), true},
		{"closed conn", net.ErrClosed, true},
		{"net timeout", timeoutErr, true},
		{"protocol error", protocolErrorf("bad frame"), false},
		{"wrapped protocol error", fmt.Errorf("edge 1: %w", protocolErrorf("bad frame")), false},
		{"edge error", &EdgeError{EdgeID: 2, Reason: "oom"}, false},
		{"unknown error", errors.New("mystery"), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Transient(tt.err); got != tt.transient {
				t.Errorf("Transient(%v) = %v, want %v", tt.err, got, tt.transient)
			}
		})
	}
}

// timeoutError is a minimal net.Error with Timeout() == true.
type timeoutError struct{}

func (timeoutError) Error() string   { return "i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// TestReadMessageErrorTaxonomy pins which wire failures are worth a retry: a
// connection that died mid-frame is transient; a peer that frames garbage is
// not.
func TestReadMessageErrorTaxonomy(t *testing.T) {
	// Truncated body: transient (the peer may resume and resend).
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString("{}")
	_, err := ReadMessage(&buf)
	if err == nil || !Transient(err) {
		t.Errorf("truncated body: err = %v, want transient", err)
	}
	// Undecodable frame: fatal protocol error.
	buf.Reset()
	binary.BigEndian.PutUint32(hdr[:], 3)
	buf.Write(hdr[:])
	buf.WriteString("{{{")
	_, err = ReadMessage(&buf)
	var pe *ProtocolError
	if err == nil || !errors.As(err, &pe) || Transient(err) {
		t.Errorf("bad json: err = %v, want fatal *ProtocolError", err)
	}
	// Impossible frame length: fatal protocol error.
	buf.Reset()
	binary.BigEndian.PutUint32(hdr[:], uint32(maxFrame+1))
	buf.Write(hdr[:])
	_, err = ReadMessage(&buf)
	if err == nil || !errors.As(err, &pe) || Transient(err) {
		t.Errorf("oversized frame: err = %v, want fatal *ProtocolError", err)
	}
}

func TestBackoffDelayDeterministicAndCapped(t *testing.T) {
	cfg := RetryConfig{Attempts: 5}.withDefaults()
	seq := func() []time.Duration {
		rng := numeric.SplitRNG(3, "backoff-test")
		var out []time.Duration
		for k := 1; k <= 8; k++ {
			out = append(out, backoffDelay(cfg, k, rng))
		}
		return out
	}
	first := seq()
	if !reflect.DeepEqual(first, seq()) {
		t.Error("backoff sequence not deterministic for a fixed stream")
	}
	for k, d := range first {
		if d < cfg.BaseDelay/2 || d > cfg.MaxDelay {
			t.Errorf("attempt %d delay %v outside [base/2, max]", k+1, d)
		}
	}
	// Late attempts saturate at the cap's jitter window [max/2, max].
	if last := first[len(first)-1]; last < cfg.MaxDelay/2 {
		t.Errorf("saturated delay %v below half the cap", last)
	}
}

// TestReadMessageBoundsAllocation pins that a frame header alone cannot make
// the reader allocate what it announces: a 256 MiB length followed by EOF
// is a transient truncation that costs a bounded buffer, not 256 MiB.
func TestReadMessageBoundsAllocation(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 256<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadMessage(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if err == nil || !Transient(err) {
		t.Errorf("truncated 256 MiB frame: err = %v, want transient", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 8<<20 {
		t.Errorf("reading a bare 256 MiB header allocated %d bytes, want < 8 MiB", d)
	}
	// A body longer than one chunk still arrives whole.
	big := &Message{Type: MsgAssign, Slot: 1, Switch: true, Weights: bytes.Repeat([]byte{7}, 2*frameChunk)}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, big); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil || !bytes.Equal(got.Weights, big.Weights) {
		t.Errorf("multi-chunk frame: err = %v, weights intact = %v", err, err == nil && bytes.Equal(got.Weights, big.Weights))
	}
}

// regionalMessages are regional-tier frames, valid and degenerate, that the
// codec tests send alongside roundTripMessages.
var regionalMessages = []Message{
	{Type: MsgHello, EdgeID: 2, Resume: true, ResumeToken: "tok-2", DoneSlots: 17},
	{Type: MsgShardAssign, Slot: 3, Start: 4, Count: 2, Arms: []int{0, 1}, Downloads: []bool{true, false}},
	{Type: MsgShardDelta, Slot: 3, Delta: &engine.SlotDelta{Start: 4, Edges: []engine.EdgeDelta{
		{Loss: 0.5, InferLoss: 0.4, Compute: 0.1, Correct: 3, Samples: 5, InferKWh: 1e-6, Served: true},
		{WentDown: true, DownError: "edge down", Retries: 2},
	}}},
	{Type: MsgShardDelta, Slot: 4},
	{Type: MsgShardAdopt, Slot: 6, Checkpoint: &engine.ShardCheckpoint{
		Start: 4, Count: 2, DoneSlots: 6, FleetSeed: 9,
		Down: []bool{false, true}, DownErrors: []string{"", "edge down"}, JitterDraws: []int{0, 3},
	}},
}

// seedMessages lists every message the codec tests frame.
func seedMessages() []Message {
	msgs := append([]Message(nil), regionalMessages...)
	for _, tt := range roundTripMessages {
		msgs = append(msgs, tt.msg)
	}
	return msgs
}

// TestEveryByteFlipIsRejected flips each byte of each seed frame in turn
// (^0xff). A flip in the body or the trailer fails the checksum. A flip in
// the length either exceeds the limit, leaves no room for the checksum, or
// moves the frame's end, so that some other four bytes are read as the
// trailer; for a longer length, the stream supplies the bytes that follow,
// as a live connection would. Every flip must be a fatal *ProtocolError:
// none may decode, and none may pass for a dropped connection.
func TestEveryByteFlipIsRejected(t *testing.T) {
	for _, m := range seedMessages() {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, &m); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		for i := range frame {
			flipped := bytes.Clone(frame)
			flipped[i] ^= 0xff
			got, err := ReadMessage(io.MultiReader(bytes.NewReader(flipped), zeros{}))
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Errorf("type %d frame, byte %d of %d flipped: got %+v, err = %v, want *ProtocolError", m.Type, i, len(frame), got, err)
			}
		}
	}
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(b []byte) (int, error) {
	clear(b)
	return len(b), nil
}

// TestBinaryBodiesAreBitExact round-trips the per-slot messages with the
// values a text encoding loses or rejects: NaN (with a payload), -0, ±Inf,
// subnormals and the extreme int64 counts. Every field must come back with
// the same bits.
func TestBinaryBodiesAreBitExact(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	sub := math.SmallestNonzeroFloat64
	negZero := math.Copysign(0, -1)
	cases := []Message{
		{Type: MsgAssign, Slot: math.MinInt64, ModelID: math.MaxInt64, Switch: true, Weights: []byte{0, 0xff}},
		{Type: MsgAssign, Slot: math.MaxInt64, ModelID: -1},
		{Type: MsgReport, Slot: math.MaxInt64, EdgeID: math.MinInt64, ModelID: -1,
			AvgLoss: nan, Correct: math.MinInt64, Samples: math.MaxInt64, EnergyKWh: negZero, CompSeconds: math.Inf(1)},
		{Type: MsgReport, AvgLoss: math.Inf(-1), EnergyKWh: sub, CompSeconds: -sub},
		{Type: MsgShardAssign, Slot: 1, Start: math.MinInt64, Count: math.MaxInt64,
			Arms: []int{math.MinInt64, 0, math.MaxInt64}, Downloads: []bool{true, false, true}},
		{Type: MsgShardDelta, Slot: math.MinInt64, Delta: &engine.SlotDelta{Start: math.MaxInt64, Edges: []engine.EdgeDelta{
			{Loss: nan, InferLoss: negZero, Compute: math.Inf(1), Correct: math.MinInt64, Samples: math.MaxInt64,
				InferKWh: sub, TransferKWh: math.Inf(-1), Retries: math.MinInt64, Served: true, DownError: "\xff\x00 not utf-8"},
			{WentDown: true, Loss: math.MaxFloat64, Retries: math.MaxInt64},
		}}},
	}
	for _, m := range cases {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, &m); err != nil {
			t.Fatalf("type %d: WriteMessage: %v", m.Type, err)
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("type %d: ReadMessage: %v", m.Type, err)
		}
		if !sameBits(reflect.ValueOf(got).Elem(), reflect.ValueOf(&m).Elem()) {
			t.Errorf("type %d: bits changed in transit:\n sent: %+v\n  got: %+v", m.Type, m, *got)
		}
	}
}

// sameBits is reflect.DeepEqual with floats compared by their bits, so NaN
// equals the identical NaN and -0 differs from +0.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Interface:
		return a.IsNil() && b.IsNil()
	}
	return a.Equal(b)
}

// FuzzReadMessage feeds arbitrary frame bodies to the decoder, each wrapped
// in a valid header and checksum trailer so mutations reach both decoders
// rather than stopping at the checksum. No input may panic; every failure
// must be a fatal *ProtocolError; a decoded message must survive re-encoding
// unchanged (a binary body byte for byte, a JSON one field for field); and
// the wire validators must not panic on it.
func FuzzReadMessage(f *testing.F) {
	for _, m := range seedMessages() {
		f.Add(encodeBody(f, &m))
	}
	f.Add([]byte{})
	f.Add([]byte("{{{"))
	f.Add([]byte(`{"type":99}`))
	f.Add([]byte(`{"type":4,"slot":1}`))
	// Empty lists decode as absent ones, so re-encoding cannot change them.
	f.Add([]byte(`{"type":12,"arms":[],"checkpoint":{"down":[]}}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := ReadMessage(bytes.NewReader(frameBody(body)))
		if err != nil {
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("a whole frame failed outside ProtocolError: %v", err)
			}
			return
		}
		if binaryBody(m.Type) {
			// reflect.DeepEqual is false for NaN, so compare the bytes.
			if again := encodeBody(t, m); !bytes.Equal(again, body) {
				t.Fatalf("re-encoding changed the body:\n first: %x\n again: %x", body, again)
			}
		} else {
			var buf bytes.Buffer
			if err := WriteMessage(&buf, m); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			again, err := ReadMessage(&buf)
			if err != nil {
				t.Fatalf("decode of re-encoded message: %v", err)
			}
			if !reflect.DeepEqual(m, again) {
				t.Fatalf("re-encoding changed the message:\n first: %+v\n again: %+v", m, again)
			}
		}
		_ = ValidateReport(m)
		_ = ValidateDelta(m, m.Start, m.Count, m.Slot)
		_ = ValidateAdopt(m)
	})
}
