// Package deploy is a runnable distributed deployment of the paper's
// system (its Fig. 1): a cloud process hosts the model zoo and runs the
// joint online controller (Algorithm 1 per edge + Algorithm 2), while edge
// agents — connected over any net.Conn, e.g. TCP — receive serialized model
// checkpoints, run real inference on their local data streams, and report
// per-slot losses and energy. This realizes the paper's third future-work
// item ("deploying our system in real-world cloud-edge environments") at
// protocol fidelity: models are actually shipped as bytes, losses are only
// observed after inference, and the cloud sees nothing about an edge's data.
//
// The wire protocol is a stream of length-prefixed frames: a 4-byte
// big-endian length, the Message body, and a CRC-32C of the body that is
// checked before anything decodes it. The four per-slot messages (Assign,
// Report, ShardAssign, ShardDelta) travel as fixed-layout binary bodies that
// carry floats as their raw bits; handshake and control messages stay JSON,
// which keeps them inspectable. codec.go holds the layout.
package deploy

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/carbonedge/carbonedge/internal/engine"
)

// MsgType discriminates protocol messages.
type MsgType int

// Protocol message types.
const (
	// MsgHello is the edge's first frame: it announces its identity.
	MsgHello MsgType = iota + 1
	// MsgWelcome is the cloud's reply: zoo metadata the edge needs.
	MsgWelcome
	// MsgAssign starts a slot on an edge: the model to serve, with the
	// serialized checkpoint when the edge must download it.
	MsgAssign
	// MsgReport is the edge's end-of-slot observation.
	MsgReport
	// MsgDone ends the run.
	MsgDone
	// MsgError aborts the run with a reason.
	MsgError

	// Regional-aggregator tier (root cloud <-> regional coordinator). A
	// coordinator owns one contiguous shard of the fleet: it admits its
	// edges exactly as the monolithic cloud would, steps them per slot, and
	// streams the shard's SlotDelta back to the root, which merges deltas in
	// canonical shard order and folds them bit-identically to a single
	// in-process run (see engine.RunSharded).

	// MsgRegionHello is a coordinator's first frame: it announces RegionID.
	MsgRegionHello
	// MsgRegionWelcome is the root's reply: the shard's edge range, the
	// horizon, the zoo size, and the error policy the shard must apply.
	MsgRegionWelcome
	// MsgShardAssign starts a slot on a region: the shard-local model
	// placement and download schedule.
	MsgShardAssign
	// MsgShardDelta is the region's end-of-slot shard reduction.
	MsgShardDelta
	// MsgRegionLeave is a coordinator's graceful departure: sent in reply to
	// a ShardAssign it will not serve, it tells the root to rebalance the
	// region's shards onto survivors. The departing region then releases its
	// edge connections so the edges can redial the adopter and resume.
	MsgRegionLeave
	// MsgShardAdopt hands an orphaned shard to a surviving (or newly joined)
	// coordinator: it carries the engine.ShardCheckpoint the adopter needs to
	// rebuild the shard's links, tokens, and down state mid-run.
	MsgShardAdopt
)

// maxFrame bounds a single frame (weights of a large checkpoint dominate).
const maxFrame = 1 << 30

// frameChunk caps what ReadMessage allocates before a frame's body has
// arrived: a header may announce up to maxFrame, but the body buffer grows
// only as bytes are read, so a peer that lies about a length (before it is
// even authenticated) cannot make the reader allocate it. Every frame up to
// frameChunk is still read into a single allocation.
const frameChunk = 4 << 20

// Message is the single wire envelope; unused fields stay zero.
type Message struct {
	Type MsgType `json:"type"`

	// Hello / Welcome.
	EdgeID    int         `json:"edgeId,omitempty"`
	NumModels int         `json:"numModels,omitempty"`
	Models    []ModelMeta `json:"models,omitempty"`

	// Session resume (Hello / Welcome). A first Hello carries neither field;
	// the Welcome answers with the session's ResumeToken. A reconnecting
	// edge sends Hello with Resume set, the token it was issued, and
	// DoneSlots = number of slots it has completed reports for — so the
	// cloud can re-assign the in-flight slot without re-shipping zoo
	// metadata (the resume Welcome omits Models) and without double-counting
	// a slot whose report was lost in flight (the edge answers a duplicate
	// assign from its report cache instead of re-serving it).
	Resume      bool   `json:"resume,omitempty"`
	ResumeToken string `json:"resumeToken,omitempty"`
	DoneSlots   int    `json:"doneSlots,omitempty"`

	// Assign.
	Slot    int    `json:"slot,omitempty"`
	ModelID int    `json:"modelId,omitempty"`
	Switch  bool   `json:"switch,omitempty"`
	Weights []byte `json:"weights,omitempty"`

	// Report.
	AvgLoss     float64 `json:"avgLoss,omitempty"`
	Correct     int     `json:"correct,omitempty"`
	Samples     int     `json:"samples,omitempty"`
	EnergyKWh   float64 `json:"energyKwh,omitempty"`
	CompSeconds float64 `json:"compSeconds,omitempty"`

	// Error.
	Reason string `json:"reason,omitempty"`

	// Regional tier. RegionHello carries RegionID; RegionWelcome answers
	// with the shard's global edge range [Start, Start+Count), the run
	// Horizon, NumModels (shared field above), and Degrade (whether the
	// shard absorbs edge failures instead of failing fast). ShardAssign
	// carries the shard-local Arms/Downloads for Slot; ShardDelta answers
	// with the shard's per-slot reduction. The binary body carries every
	// float64 as its raw bits, so a delta that crossed this hop folds to the
	// same bits as one that never left the root's process.
	RegionID  int               `json:"regionId,omitempty"`
	Start     int               `json:"start,omitempty"`
	Count     int               `json:"count,omitempty"`
	Horizon   int               `json:"horizon,omitempty"`
	Degrade   bool              `json:"degrade,omitempty"`
	Arms      []int             `json:"arms,omitempty"`
	Downloads []bool            `json:"downloads,omitempty"`
	Delta     *engine.SlotDelta `json:"delta,omitempty"`

	// Region elasticity. A RegionHello announces Seed (the coordinator's
	// fleet seed, so the root can later checkpoint the shard's token and
	// jitter derivations for an adopter); a resuming RegionHello reuses the
	// shared Resume/ResumeToken/DoneSlots fields above, exactly as edges do.
	// ShardAssign carries Start/Count so a coordinator owning several ranges
	// after an adoption can route the slot; ShardAdopt carries the orphaned
	// shard's Checkpoint.
	Seed       int64                   `json:"seed,omitempty"`
	Checkpoint *engine.ShardCheckpoint `json:"checkpoint,omitempty"`
}

// ModelMeta is the per-model metadata the cloud announces to edges.
type ModelMeta struct {
	Name      string  `json:"name"`
	PhiKWh    float64 `json:"phiKwh"`
	SizeBytes int64   `json:"sizeBytes"`
}

// WriteMessage frames and writes one message, as two writes: the 4-byte
// header, then the body with its checksum.
func WriteMessage(w io.Writer, m *Message) error {
	frame, err := encodeFrame(m)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame[:4]); err != nil {
		return fmt.Errorf("deploy: write header: %w", err)
	}
	if _, err := w.Write(frame[4:]); err != nil {
		return fmt.Errorf("deploy: write body: %w", err)
	}
	return nil
}

// ReadMessage reads one framed message. Failures follow the error taxonomy
// in errors.go: truncated reads are transient I/O errors (the connection
// died, possibly mid-frame — a resume can heal it), while an impossible
// frame length, a checksum mismatch, an undecodable body, or an unknown
// message type is a fatal *ProtocolError (the peer is broken; retrying
// cannot help).
func ReadMessage(r io.Reader) (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("deploy: read header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, protocolErrorf("frame of %d bytes exceeds limit", n)
	}
	if n < crcSize {
		return nil, protocolErrorf("frame of %d bytes cannot hold its checksum", n)
	}
	frame := make([]byte, min(n, frameChunk))
	for read := 0; ; {
		if _, err := io.ReadFull(r, frame[read:]); err != nil {
			return nil, fmt.Errorf("deploy: read body: %w", err)
		}
		if read = len(frame); read == int(n) {
			break
		}
		frame = append(frame, make([]byte, min(int(n)-read, read))...)
	}
	return decodeFrame(frame)
}

// ValidateReport defensively checks a MsgReport before its numbers reach
// the engine's accounting: non-finite or negative losses, energies, and
// counts would silently poison the carbon ledger and the bandit state, so
// they are rejected as fatal protocol errors at the wire boundary.
func ValidateReport(m *Message) error {
	if m.Type != MsgReport {
		return protocolErrorf("expected Report, got type %d", m.Type)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"avgLoss", m.AvgLoss},
		{"energyKwh", m.EnergyKWh},
		{"compSeconds", m.CompSeconds},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return protocolErrorf("report slot %d: %s is not finite (%v)", m.Slot, f.name, f.v)
		}
		if f.v < 0 {
			return protocolErrorf("report slot %d: negative %s (%v)", m.Slot, f.name, f.v)
		}
	}
	if m.Samples < 0 {
		return protocolErrorf("report slot %d: negative sample count %d", m.Slot, m.Samples)
	}
	if m.Correct < 0 || m.Correct > m.Samples {
		return protocolErrorf("report slot %d: %d correct of %d samples", m.Slot, m.Correct, m.Samples)
	}
	return nil
}

// ValidateDelta defensively checks a MsgShardDelta before its terms reach
// the root's accounting fold: the delta must cover exactly the shard's edge
// range for the expected slot, and every numeric term must be finite and
// non-negative, for the same reason ValidateReport polices edge reports —
// one poisoned term would silently corrupt the carbon ledger.
func ValidateDelta(m *Message, start, count, slot int) error {
	if m.Type != MsgShardDelta {
		return protocolErrorf("expected ShardDelta, got type %d", m.Type)
	}
	if m.Slot != slot {
		return protocolErrorf("shard delta for slot %d, want %d", m.Slot, slot)
	}
	if m.Delta == nil {
		return protocolErrorf("shard delta slot %d: missing delta", slot)
	}
	if m.Delta.Start != start || len(m.Delta.Edges) != count {
		return protocolErrorf("shard delta slot %d covers [%d,%d), want [%d,%d)",
			slot, m.Delta.Start, m.Delta.Start+len(m.Delta.Edges), start, start+count)
	}
	for j := range m.Delta.Edges {
		ed := &m.Delta.Edges[j]
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"loss", ed.Loss},
			{"inferLoss", ed.InferLoss},
			{"compute", ed.Compute},
			{"inferKwh", ed.InferKWh},
			{"transferKwh", ed.TransferKWh},
		} {
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
				return protocolErrorf("shard delta slot %d edge %d: %s is not finite (%v)", slot, start+j, f.name, f.v)
			}
			if f.v < 0 {
				return protocolErrorf("shard delta slot %d edge %d: negative %s (%v)", slot, start+j, f.name, f.v)
			}
		}
		if ed.Samples < 0 {
			return protocolErrorf("shard delta slot %d edge %d: negative sample count %d", slot, start+j, ed.Samples)
		}
		if ed.Correct < 0 || ed.Correct > ed.Samples {
			return protocolErrorf("shard delta slot %d edge %d: %d correct of %d samples", slot, start+j, ed.Correct, ed.Samples)
		}
		if ed.Retries < 0 {
			return protocolErrorf("shard delta slot %d edge %d: negative retry count %d", slot, start+j, ed.Retries)
		}
	}
	return nil
}

// ValidateAdopt defensively checks a MsgShardAdopt before its checkpoint
// rebuilds shard state in the adopting coordinator: a malformed checkpoint is
// a fatal protocol error at the wire boundary, like any other bad frame.
func ValidateAdopt(m *Message) error {
	if m.Type != MsgShardAdopt {
		return protocolErrorf("expected ShardAdopt, got type %d", m.Type)
	}
	if m.Checkpoint == nil {
		return protocolErrorf("shard adopt: missing checkpoint")
	}
	if err := m.Checkpoint.Validate(); err != nil {
		return protocolErrorf("shard adopt: %v", err)
	}
	return nil
}
