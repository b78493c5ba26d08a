package deploy

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/carbonedge/carbonedge/internal/energy"
	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// fleetConfig parameterizes an edgeFleet: the TCP-facing machinery that
// admits contiguous ranges of edge sessions, carries their connections
// across drops, and exchanges per-slot assignments for reports.
//
// It is the deployment-transport subset of CloudConfig, factored out so both
// the monolithic Cloud (offset 0, the whole fleet) and a regional
// coordinator (offset = the region's shard start) drive identical admission,
// resume, retry, and exchange code.
type fleetConfig struct {
	// count is the number of edges this fleet initially admits; offset is the
	// global id of its first edge: the fleet starts serving global edge ids
	// [offset, offset+count). count may be 0 for a standby fleet that gains
	// its ranges only through mid-run shard adoption.
	count  int
	offset int
	// horizon bounds the resume-position plausibility check.
	horizon int
	// seed drives the resume-token issue and the deterministic backoff
	// jitter streams.
	seed int64
	// handshake and slot are the owner's HandshakeTimeout and SlotTimeout.
	handshake, slot time.Duration
	// retry is the per-slot transient-failure budget.
	retry RetryConfig
}

// fleetRange is one contiguous block of edge links the fleet serves: the
// initial range from fleetConfig, plus one per adopted shard. Tokens and
// jitter streams are derived from the range's own seed — for an adopted
// range that is the original owner's fleet seed, so the edges' existing
// resume tokens keep verifying.
type fleetRange struct {
	offset int
	seed   int64
	links  []*link
}

// edgeFleet owns the cloud-side state of the edge sessions it serves: one
// link per edge (grouped into contiguous ranges), the acceptor that admits
// initial and resumed connections into the links, and the tcpSteppers that
// exchange over them.
type edgeFleet struct {
	*acceptor
	fcfg   fleetConfig
	source ModelSource

	// mu guards ranges: the acceptor reads them concurrently with mid-run
	// adoptions appending new ones.
	mu     sync.RWMutex
	ranges []*fleetRange

	// sleep performs retry backoff; injectable so chaos tests replay with
	// zero wall time. Defaults to time.Sleep.
	sleep func(time.Duration)
}

// newEdgeFleet builds the fleet's initial links with deterministic resume
// tokens. The caller validates the configuration (see NewCloud / RunRegion).
func newEdgeFleet(cfg fleetConfig, source ModelSource) *edgeFleet {
	f := &edgeFleet{
		acceptor: newAcceptor(cfg.handshake, cfg.horizon, cfg.count),
		fcfg:     cfg,
		source:   source,
		ranges:   []*fleetRange{{offset: cfg.offset, seed: cfg.seed, links: buildLinks(cfg.offset, cfg.count, cfg.seed, false)}},
	}
	//lint:allow nodeterm retry backoff is real wall-clock waiting; chaos tests inject a zero-time sleep
	f.sleep = time.Sleep
	return f
}

// buildLinks derives a contiguous range's links. Resume tokens are
// deterministic from the seed: they bind a redialing connection to the
// session it claims (mis-binding protection inside a trusted deployment),
// not an authentication secret — which is also what lets an adopting
// coordinator reconstruct an orphaned range's tokens from the original
// fleet seed instead of having them shipped.
func buildLinks(offset, count int, seed int64, claimed bool) []*link {
	tokenRNG := numeric.SplitRNG(seed, "deploy-resume-token")
	links := make([]*link, count)
	for i := range links {
		links[i] = newLink("edge", offset+i, fmt.Sprintf("%016x-%02d", tokenRNG.Uint64(), i), claimed)
	}
	return links
}

// linkFor resolves a global edge id to its link, or nil when the fleet does
// not (yet) serve it.
func (f *edgeFleet) linkFor(id int) *link {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, rg := range f.ranges {
		if local := id - rg.offset; local >= 0 && local < len(rg.links) {
			return rg.links[local]
		}
	}
	return nil
}

// members implements tier: every range's links, in range order.
func (f *edgeFleet) members() []*link {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var out []*link
	for _, rg := range f.ranges {
		out = append(out, rg.links...)
	}
	return out
}

// hello implements tier. Edge ids on the wire are global; the fleet serves
// its ranges' ids (initial plus any adopted mid-run).
func (f *edgeFleet) hello(m *Message) (*link, string) {
	if m.Type != MsgHello {
		return nil, "expected Hello"
	}
	l := f.linkFor(m.EdgeID)
	if l == nil && !m.Resume {
		return nil, fmt.Sprintf("bad edge id %d", m.EdgeID)
	}
	// A resuming edge the fleet does not know (yet) gets no verdict: during
	// a shard handoff the edge may redial the adopter before the adopt frame
	// installs its range. It sees a transient drop and retries; a definitive
	// rejection would kill its session mid-migration.
	return l, ""
}

// welcome implements tier. The resume Welcome omits the zoo metadata: the
// edge already holds it (and its loaded checkpoints) from the session.
func (f *edgeFleet) welcome(m *Message, l *link) (*Message, bool) {
	if m.Resume {
		return &Message{Type: MsgWelcome, EdgeID: m.EdgeID, Resume: true}, false
	}
	metas := make([]ModelMeta, f.source.NumModels())
	for n := range metas {
		metas[n] = f.source.Meta(n)
	}
	return &Message{Type: MsgWelcome, EdgeID: m.EdgeID, NumModels: len(metas), Models: metas, ResumeToken: l.token}, true
}

// adopt installs an orphaned shard's range mid-run from its checkpoint: the
// links are rebuilt with the original fleet's tokens (derived from
// ck.FleetSeed) and pre-claimed, so the shard's edges are admitted through
// the resume path only — exactly the state they are in. It returns the
// range's steppers, with each edge's backoff jitter stream fast-forwarded to
// the checkpointed draw position (jitter paces wall-clock retries only; it
// never reaches Results).
func (f *edgeFleet) adopt(ck *engine.ShardCheckpoint) ([]engine.EdgeStepper, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, rg := range f.ranges {
		if ck.Start < rg.offset+len(rg.links) && rg.offset < ck.Start+ck.Count {
			return nil, protocolErrorf("adopted range [%d,%d) overlaps fleet range [%d,%d)",
				ck.Start, ck.Start+ck.Count, rg.offset, rg.offset+len(rg.links))
		}
	}
	rg := &fleetRange{offset: ck.Start, seed: ck.FleetSeed, links: buildLinks(ck.Start, ck.Count, ck.FleetSeed, true)}
	f.ranges = append(f.ranges, rg)
	return f.steppers(rg, ck.JitterDraws), nil
}

// steppers builds one tcpStepper per link of rg, each with its deterministic
// backoff jitter stream advanced by draws[i] positions (draws may be nil).
// The initial range's steppers are steppers(f.ranges[0], nil).
func (f *edgeFleet) steppers(rg *fleetRange, draws []int) []engine.EdgeStepper {
	out := make([]engine.EdgeStepper, len(rg.links))
	for i, l := range rg.links {
		rng := numeric.SplitRNG(rg.seed, fmt.Sprintf("deploy-retry-%d", i))
		for k := 0; draws != nil && k < draws[i]; k++ {
			rng.Int63()
		}
		out[i] = &tcpStepper{fleet: f, link: l, rng: rng}
	}
	return out
}

// tcpStepper runs one edge's slot over its link: ship the assignment (plus
// checkpoint on a switch), wait for the report, translate it into the
// engine's observation. The reported average loss stands in for both the
// bandit feedback and the accounting term — the deployment has no posterior
// mean, only what the edge measured.
//
// Transient failures (resets, timeouts, mid-frame EOFs) consume the
// per-slot retry budget: each retry backs off deterministically and waits
// for the edge to redial and resume before re-running the exchange. Fatal
// failures (protocol violations, invalid report numbers, edge application
// errors) fail the slot immediately.
type tcpStepper struct {
	fleet *edgeFleet
	link  *link
	rng   *rand.Rand // deterministic backoff jitter stream
}

// Step implements engine.EdgeStepper.
//
//lint:cold a TCP round trip per slot dominates any allocation; the alloc-free contract covers in-process steppers only
func (s *tcpStepper) Step(slot, arm int, download bool) (engine.Observation, error) {
	var obs engine.Observation
	retries, err := s.link.attempt(s.fleet.fcfg.retry, s.rng, s.fleet.sleep, func(conn net.Conn) (err error) {
		obs, err = s.exchange(conn, slot, arm, download)
		return err
	})
	if Transient(err) {
		err = fmt.Errorf("edge %d slot %d: retry budget exhausted after %d retries: %w", s.link.id, slot, retries, err)
	}
	obs.Retries = retries
	return obs, err
}

// exchange runs one assign/report round trip on conn.
func (s *tcpStepper) exchange(conn net.Conn, slot, arm int, download bool) (engine.Observation, error) {
	f, i := s.fleet, s.link.id
	if slotTimeout := f.fcfg.slot; slotTimeout > 0 {
		//lint:allow nodeterm real I/O deadline on a live TCP connection; wall time is the only clock the kernel honors
		if err := conn.SetDeadline(time.Now().Add(slotTimeout)); err != nil {
			return engine.Observation{}, fmt.Errorf("edge %d deadline: %w", i, err)
		}
		defer conn.SetDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	}
	assign := &Message{
		Type:    MsgAssign,
		Slot:    slot,
		ModelID: arm,
		Switch:  download,
	}
	if download {
		ckpt, err := f.source.Checkpoint(arm)
		if err != nil {
			return engine.Observation{}, fmt.Errorf("checkpoint model %d: %w", arm, err)
		}
		assign.Weights = ckpt
	}
	if err := WriteMessage(conn, assign); err != nil {
		return engine.Observation{}, fmt.Errorf("edge %d assign: %w", i, err)
	}
	rep, err := ReadMessage(conn)
	if err != nil {
		return engine.Observation{}, fmt.Errorf("edge %d report: %w", i, err)
	}
	if rep.Type == MsgError {
		return engine.Observation{}, &EdgeError{EdgeID: i, Reason: rep.Reason}
	}
	if err := ValidateReport(rep); err != nil {
		return engine.Observation{}, fmt.Errorf("edge %d: %w", i, err)
	}
	if rep.Slot != slot {
		return engine.Observation{}, protocolErrorf("edge %d: report for slot %d, want %d", i, rep.Slot, slot)
	}
	return engine.Observation{
		Loss:      rep.AvgLoss + rep.CompSeconds,
		InferLoss: rep.AvgLoss,
		Compute:   rep.CompSeconds,
		Correct:   rep.Correct,
		Samples:   rep.Samples,
		InferKWh:  rep.EnergyKWh,
		TransferKWh: energy.TransferEnergy(
			energy.TransferEnergyPerByte, f.source.Meta(arm).SizeBytes),
	}, nil
}
