package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"github.com/carbonedge/carbonedge/internal/bandit"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/numeric"
	"github.com/carbonedge/carbonedge/internal/sim"
	"github.com/carbonedge/carbonedge/internal/trading"
)

// simFleet is the in-process workload: sim.RunSharded plays the paper's
// own combination ("Ours") over a surrogate zoo. There is no wire and no
// neural network, so the bandit, Zoo.BatchLoss, the engine's fold and the
// trader do all the work.
type simFleet struct {
	edges, horizon, shards int
	meanPeak               float64
}

func (w *simFleet) digestTable() string { return "sim-fleet" }
func (w *simFleet) edgeSlots() int      { return w.edges * w.horizon }
func (w *simFleet) spanCapacity() int   { return 8 * w.horizon }

// scenario materializes the workload's inputs from seed.
func (w *simFleet) scenario(seed int64, wrap func(models.Zoo) models.Zoo) (*sim.Scenario, error) {
	zoo, err := models.DefaultSurrogateZoo(numeric.SplitRNG(seed, "bench-zoo"))
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig(w.edges)
	cfg.Horizon = w.horizon
	cfg.Seed = seed
	cfg.MeanPeakWorkload = w.meanPeak
	var z models.Zoo = zoo
	if wrap != nil {
		z = wrap(zoo)
	}
	return sim.NewScenario(cfg, z)
}

func (w *simFleet) rep(seed int64, tr *tracer) (*repResult, error) {
	return w.run(seed, tr, w.shards)
}

// run plays one rep at the given shard count (the workload's own, or 1 for
// the traced run's scaling probe).
func (w *simFleet) run(seed int64, tr *tracer, shards int) (*repResult, error) {
	t0 := now()
	rec := &simRecorder{tr: tr, starts: make([]int64, w.horizon), last: w.edges - 1}
	var wrap func(models.Zoo) models.Zoo
	if tr != nil {
		wrap = func(z models.Zoo) models.Zoo {
			rec.zoo = &timedZoo{Zoo: z}
			return rec.zoo
		}
	}
	s, err := w.scenario(seed, wrap)
	if err != nil {
		return nil, err
	}
	tScenario := now()
	pf := sim.PolicyOurs
	if tr != nil {
		pf = rec.policyFactory
	}
	tf := func(s *sim.Scenario, rng *rand.Rand) (trading.Trader, error) {
		inner, err := sim.TraderOurs(s, rng)
		if err != nil {
			return nil, err
		}
		return &timedTrader{inner: inner, rec: rec}, nil
	}
	res, err := sim.RunSharded(s, "Ours", pf, tf, shards, 1)
	tEnd := now()
	var mem memSnap
	if tr != nil {
		mem = readMem()
	}
	if err != nil {
		return nil, err
	}
	digest, err := digestOf(res)
	if err != nil {
		return nil, err
	}
	first := rec.starts[0]
	r := &repResult{
		attempted: w.edges * w.horizon,
		dropped:   res.DroppedSlots,
		setupNS:   first - t0,
		runNS:     tEnd - first,
		// The slot start is observed at the trader's Decide, after slot 0's
		// edges were served: slots 1..H-1 complete after set-up.
		served: w.edges*(w.horizon-1) - res.DroppedSlots,
		starts: rec.starts,
		digest: digest,
	}
	if tr != nil {
		r.layers = rec.layers(w, tr, mem, t0, tScenario, tEnd, shards)
	}
	return r, nil
}

func (w *simFleet) oracle(seed int64, _ *repResult) (string, error) {
	s, err := w.scenario(seed, nil)
	if err != nil {
		return "", err
	}
	// One shard stepping serially: the canonical order every decomposition
	// must reproduce bit for bit.
	res, err := sim.RunSharded(s, "Ours", sim.PolicyOurs, sim.TraderOurs, 1, 1)
	if err != nil {
		return "", err
	}
	return digestOf(res)
}

// extras measures the engine's 1→2 shard scaling: one untraced rep at a
// single shard against the untraced reps at the workload's two.
func (w *simFleet) extras(seed int64, untraced, _ []*repResult) (map[string]float64, error) {
	one, err := w.run(seed, nil, 1)
	if err != nil {
		return nil, err
	}
	var two []float64
	for _, r := range untraced {
		two = append(two, intervalsMS(r.starts)...)
	}
	if len(two) == 0 {
		return nil, fmt.Errorf("no untraced reps at %d shards", w.shards)
	}
	return map[string]float64{"engine.shard_speedup_1to2": median(intervalsMS(one.starts)) / median(two)}, nil
}

// simRecorder collects one sim-fleet rep's timings.
type simRecorder struct {
	tr     *tracer
	starts []int64 // slot starts, observed at the trader's Decide
	last   int     // index of the fleet's last edge
	zoo    *timedZoo
	mem0   memSnap

	selStart, updStart int64
}

// policyFactory wraps the first and last edges' policies: core selects and
// updates edges in index order, so edge 0's call opens the slot's select or
// update phase and the last edge's call closes it. The edges in between run
// unwrapped, so the phase spans cost four clock reads per slot.
func (rec *simRecorder) policyFactory(s *sim.Scenario, edge int, rng *rand.Rand) (bandit.Policy, error) {
	p, err := sim.PolicyOurs(s, edge, rng)
	if err != nil || (edge != 0 && edge != rec.last) {
		return p, err
	}
	pp := &phasePolicy{Policy: p, rec: rec, first: edge == 0, last: edge == rec.last}
	if _, ok := p.(bandit.Skipper); ok {
		// core hands an unserved slot to Skip only when the policy has it.
		return &skipPhasePolicy{pp}, nil
	}
	return pp, nil
}

// phasePolicy times the select and update phases from the fleet's edges.
type phasePolicy struct {
	bandit.Policy
	rec             *simRecorder
	first, last     bool
	selects, closes int
}

func (p *phasePolicy) SelectArm() int {
	if p.first {
		p.rec.selStart = now()
	}
	a := p.Policy.SelectArm()
	if p.last {
		p.rec.tr.spans.add(span{kind: spanSelect, parent: spanSlot, rep: p.rec.tr.rep, slot: int32(p.selects), start: p.rec.selStart, end: now()})
		p.selects++
	}
	return a
}

func (p *phasePolicy) Update(loss float64) {
	if p.first {
		p.rec.updStart = now()
	}
	p.Policy.Update(loss)
	p.closeUpdate()
}

func (p *phasePolicy) closeUpdate() {
	if p.last {
		p.rec.tr.spans.add(span{kind: spanUpdate, parent: spanSlot, rep: p.rec.tr.rep, slot: int32(p.closes), start: p.rec.updStart, end: now()})
		p.closes++
	}
}

// skipPhasePolicy forwards bandit.Skipper for policies that implement it.
type skipPhasePolicy struct{ *phasePolicy }

func (p *skipPhasePolicy) Skip() {
	if p.first {
		p.rec.updStart = now()
	}
	p.Policy.(bandit.Skipper).Skip()
	p.closeUpdate()
}

// timedTrader marks slot starts at Decide and, when traced, times Decide
// and Observe. It forwards Lambda, which core type-asserts.
type timedTrader struct {
	inner trading.Trader
	rec   *simRecorder
}

func (t *timedTrader) Name() string { return t.inner.Name() }

func (t *timedTrader) Decide(slot int, q trading.Quote) trading.Decision {
	start := now()
	if slot < len(t.rec.starts) {
		t.rec.starts[slot] = start
	}
	tr := t.rec.tr
	if tr == nil {
		return t.inner.Decide(slot, q)
	}
	if slot == 0 {
		t.rec.mem0 = readMem()
		start = now()
	}
	d := t.inner.Decide(slot, q)
	tr.spans.add(span{kind: spanDecide, parent: spanSlot, rep: tr.rep, slot: int32(slot), start: start, end: now()})
	return d
}

func (t *timedTrader) Observe(slot int, emission float64, q trading.Quote, d trading.Decision) {
	tr := t.rec.tr
	if tr == nil {
		t.inner.Observe(slot, emission, q, d)
		return
	}
	start := now()
	t.inner.Observe(slot, emission, q, d)
	tr.spans.add(span{kind: spanObserve, parent: spanSlot, rep: tr.rep, slot: int32(slot), start: start, end: now()})
}

// Lambda forwards Algorithm 2's dual price; 0 when the trader has none,
// exactly what core reports for such a trader.
func (t *timedTrader) Lambda() float64 {
	if l, ok := t.inner.(interface{ Lambda() float64 }); ok {
		return l.Lambda()
	}
	return 0
}

// timedZoo accumulates the time edges spend in Zoo.BatchLoss. The engine's
// shards call it concurrently, so the totals are atomic.
type timedZoo struct {
	models.Zoo
	busy, calls atomic.Int64
}

func (z *timedZoo) BatchLoss(n int, indices []int, rng *rand.Rand) (float64, int) {
	start := now()
	loss, correct := z.Zoo.BatchLoss(n, indices, rng)
	z.busy.Add(now() - start)
	z.calls.Add(1)
	return loss, correct
}

// layers derives a traced rep's per-layer metrics. The run window opens at
// slot 0's select phase; the engine's rest is whatever the layer spans do
// not cover, with BatchLoss busy time spread over the parallel shards.
func (rec *simRecorder) layers(w *simFleet, tr *tracer, mem memSnap, t0, tScenario, tEnd int64, shards int) map[string]float64 {
	var sel, upd, dec, obs float64
	window0 := tEnd
	for _, s := range tr.spans.recorded() {
		d := float64(s.end - s.start)
		switch s.kind {
		case spanSelect:
			sel += d
			if s.slot == 0 {
				window0 = s.start
			}
		case spanUpdate:
			upd += d
		case spanDecide:
			dec += d
		case spanObserve:
			obs += d
		}
	}
	edgeSlots := float64(w.edges * w.horizon)
	window := float64(tEnd - window0)
	batch := float64(rec.zoo.busy.Load())
	covered := sel + upd + dec + obs + batch/float64(shards)
	after := float64(w.edges * (w.horizon - 1))
	return map[string]float64{
		"bandit.select_ns_per_edge_slot":    sel / edgeSlots,
		"bandit.update_ns_per_edge_slot":    upd / edgeSlots,
		"trading.decide_us_per_slot":        dec / 1e3 / float64(w.horizon),
		"models.batchloss_ns_per_edge_slot": batch / float64(rec.zoo.calls.Load()),
		"engine.rest_ms_per_slot":           (window - covered) / 1e6 / float64(w.horizon),
		"ladder.explained_share":            covered / window,
		"setup.scenario_s":                  float64(tScenario-t0) / 1e9,
		"setup.admit_s":                     float64(rec.starts[0]-tScenario) / 1e9,
		"go.alloc_bytes_per_edge_slot":      float64(mem.bytes-rec.mem0.bytes) / after,
		"go.allocs_per_edge_slot":           float64(mem.allocs-rec.mem0.allocs) / after,
		"go.gc_cycles":                      float64(mem.gcs - rec.mem0.gcs),
	}
}
