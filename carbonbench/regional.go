package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/carbonedge/carbonedge/internal/deploy"
	"github.com/carbonedge/carbonedge/internal/engine"
	"github.com/carbonedge/carbonedge/internal/faults"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// regional is the root + regions workload: a deploy.Root and its RunRegion
// coordinators talk over loopback TCP while the fleet's edges sit on
// in-memory pipes and run a synthetic runtime. JSON framing and the
// per-edge exchanges dominate; no neural network runs. With churn set,
// every root↔region link is cut about every five slots and the regions
// redial through RunRegionResumable.
type regional struct {
	edges, regions, horizon int
	churn                   bool
}

// churnRetry is the retry budget root and regions get under churn:
// backoff in microseconds, so a cut costs the resume itself, not a sleep.
var churnRetry = deploy.RetryConfig{
	Attempts:   8,
	BaseDelay:  time.Microsecond,
	MaxDelay:   8 * time.Microsecond,
	ResumeWait: 10 * time.Second,
}

func (w *regional) digestTable() string { return "regional-wire" }
func (w *regional) edgeSlots() int      { return w.edges * w.horizon }
func (w *regional) spanCapacity() int   { return (3*w.regions + 2) * w.horizon }

// synthWorld is the regional workloads' model zoo and serving behaviour:
// four models with fixed metadata, and per-edge reports drawn from the
// edge's own seeded stream. Checkpoints are empty, so a switch ships
// nothing and no inference runs.
type synthWorld struct {
	seed     int64
	metas    []deploy.ModelMeta
	meanLoss []float64
	comp     []float64
}

func newSynthWorld(seed int64) *synthWorld {
	w := &synthWorld{seed: seed}
	for n := 0; n < 4; n++ {
		w.metas = append(w.metas, deploy.ModelMeta{
			Name:      fmt.Sprintf("m%d", n),
			PhiKWh:    1e-5 * float64(n+1),
			SizeBytes: int64(1000 * (n + 1)),
		})
		w.meanLoss = append(w.meanLoss, 0.9-0.2*float64(n))
		w.comp = append(w.comp, 0.02*float64(n+1))
	}
	return w
}

func (w *synthWorld) runtime(edge int) *synthRuntime {
	return &synthRuntime{w: w, edge: edge, rng: numeric.SplitRNG(w.seed, fmt.Sprintf("bench-edge-%d", edge))}
}

// synthSource is the synthetic world's deploy.ModelSource.
type synthSource struct{ w *synthWorld }

func (s *synthSource) NumModels() int                 { return len(s.w.metas) }
func (s *synthSource) Meta(n int) deploy.ModelMeta    { return s.w.metas[n] }
func (s *synthSource) Checkpoint(int) ([]byte, error) { return nil, nil }

// synthRuntime is the synthetic world's deploy.Runtime.
type synthRuntime struct {
	w    *synthWorld
	edge int
	rng  *rand.Rand
}

func (r *synthRuntime) Welcome([]deploy.ModelMeta) error { return nil }
func (r *synthRuntime) LoadModel(int, []byte) error      { return nil }

func (r *synthRuntime) RunSlot(slot, modelID int) (deploy.SlotReport, error) {
	samples := 4 + (slot+r.edge)%5
	loss := r.w.meanLoss[modelID] + 0.05*r.rng.NormFloat64()
	if loss < 0 {
		loss = 0
	}
	return deploy.SlotReport{
		AvgLoss:     loss,
		Correct:     r.rng.Intn(samples + 1),
		Samples:     samples,
		EnergyKWh:   r.w.metas[modelID].PhiKWh * float64(samples),
		CompSeconds: r.w.comp[modelID],
	}, nil
}

// config is the deployment both the rep and the oracle run.
func (w *regional) config(seed int64) (deploy.CloudConfig, error) {
	prices, err := market.GeneratePrices(market.DefaultPriceConfig(), w.horizon, numeric.SplitRNG(seed, "bench-prices"))
	if err != nil {
		return deploy.CloudConfig{}, err
	}
	costs := make([]float64, w.edges)
	for i := range costs {
		costs[i] = 0.4 + 0.2*float64(i%16)
	}
	return deploy.CloudConfig{
		Edges:         w.edges,
		Horizon:       w.horizon,
		DownloadCosts: costs,
		InitialCap:    0.01,
		EmissionRate:  500,
		Prices:        prices,
		EmissionScale: 1e-3,
		Seed:          seed,
	}, nil
}

// killSchedule returns the slots at which region r's successive upstream
// connections are cut (none without churn): every fifth slot from a seeded
// first slot between 2 and 4, (H-4)/5 cuts in all, so every seed makes the
// same number of cuts. A cut armed at slot k fires on the region's next
// upstream read, the assign of slot k+1; the last cut is at most H-5.
func (w *regional) killSchedule(seed int64, r int) []int {
	if !w.churn {
		return nil
	}
	rng := numeric.SplitRNG(seed, fmt.Sprintf("bench-churn-schedule-%d", r))
	first := 2 + rng.Intn(3)
	kills := make([]int, (w.horizon-4)/5)
	for i := range kills {
		kills[i] = first + 5*i
	}
	return kills
}

func (w *regional) rep(seed int64, tr *tracer) (*repResult, error) {
	t0 := now()
	cc, err := w.config(seed)
	if err != nil {
		return nil, err
	}
	world := newSynthWorld(seed)
	var retry deploy.RetryConfig
	if w.churn {
		retry = churnRetry
	}
	root, err := deploy.NewRoot(deploy.RootConfig{
		Edges:         cc.Edges,
		Regions:       w.regions,
		Horizon:       cc.Horizon,
		DownloadCosts: cc.DownloadCosts,
		InitialCap:    cc.InitialCap,
		EmissionRate:  cc.EmissionRate,
		Prices:        cc.Prices,
		EmissionScale: cc.EmissionScale,
		Seed:          cc.Seed,
		NumModels:     len(world.metas),
		Retry:         retry,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	tScenario := now()

	rec := newRegionalRecorder(w, tr)
	var wg sync.WaitGroup
	regionErrs := make([]error, w.regions)
	edgeErrs := make([]error, w.edges)
	kills := 0
	for r, rg := range engine.PartitionEdges(w.edges, w.regions) {
		eln := newPipeListener(rg.Count)
		for i := rg.Start; i < rg.Start+rg.Count; i++ {
			regionSide, edgeSide := net.Pipe()
			var rt deploy.Runtime = world.runtime(i)
			if tr != nil {
				eln.conns <- &countingConn{Conn: regionSide, bytes: &rec.wire}
				rt = &stampRuntime{Runtime: rt, entries: rec.entries[i], busy: &rec.busy[i]}
			} else {
				eln.conns <- regionSide
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer edgeSide.Close()
				edgeErrs[i] = deploy.RunEdge(edgeSide, i, rt)
			}()
		}
		sched := w.killSchedule(seed, r)
		kills += len(sched)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer eln.Close()
			regionErrs[r] = w.runRegion(seed, r, ln.Addr().String(), eln, world, sched, rec)
			if regionErrs[r] != nil {
				ln.Close() // a region that never joins must not leave the root waiting
			}
		}()
	}
	sum, err := root.Serve(ln)
	tEnd := now()
	var mem memSnap
	if tr != nil {
		mem = readMem()
	}
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("root: %w", err)
	}
	for r, err := range regionErrs {
		if err != nil {
			return nil, fmt.Errorf("region %d: %w", r, err)
		}
	}
	for i, err := range edgeErrs {
		if err != nil {
			return nil, fmt.Errorf("edge %d: %w", i, err)
		}
	}
	resumes := 0
	for _, n := range sum.RegionResumes {
		resumes += n
	}
	if resumes != kills {
		return nil, fmt.Errorf("root accepted %d region resumes, the schedule cut %d links", resumes, kills)
	}
	digest, err := digestOf(stripElasticity(sum))
	if err != nil {
		return nil, err
	}
	first := rec.firstArrival()
	r := &repResult{
		attempted: w.edges * w.horizon,
		dropped:   sum.DroppedSlots,
		setupNS:   first - t0,
		runNS:     tEnd - first,
		served:    w.edges*w.horizon - sum.DroppedSlots,
		starts:    rec.arrivals[0],
		digest:    digest,
	}
	if tr != nil {
		r.layers = rec.layers(tr, sum, mem, t0, tScenario)
	}
	return r, nil
}

// runRegion runs coordinator r until the root ends the run. Under churn
// each dial wraps the new connection in a fault injector armed to cut it
// at the next scheduled slot.
func (w *regional) runRegion(seed int64, r int, addr string, eln net.Listener, world *synthWorld, kills []int, rec *regionalRecorder) error {
	var fc *faults.Conn // touched only by the region's own goroutine
	dials := 0
	dial := func() (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		var c net.Conn = conn
		fc = nil
		if dials < len(kills) {
			f, err := faults.New(conn, faults.KillAt(kills[dials]),
				numeric.SplitRNG(seed, fmt.Sprintf("bench-churn-fault-%d-%d", r, dials)), func(time.Duration) {})
			if err != nil {
				conn.Close()
				return nil, err
			}
			fc, c = f, f
		}
		dials++
		if rec.tr != nil {
			c = &upstreamConn{Conn: c, rec: rec, region: r}
		}
		return c, nil
	}
	var retry deploy.RetryConfig
	if w.churn {
		retry = churnRetry
	}
	cfg := deploy.RegionConfig{
		RegionID: r,
		Source:   &synthSource{w: world},
		Seed:     seed + int64(r),
		Retry:    retry,
		OnSlot: func(slot int) {
			if fc != nil {
				fc.SetSlot(slot)
			}
			rec.arrive(r, slot)
		},
	}
	if !w.churn {
		conn, err := dial()
		if err != nil {
			return err
		}
		defer conn.Close()
		return deploy.RunRegion(conn, eln, cfg)
	}
	if err := deploy.RunRegionResumable(dial, eln, cfg, len(kills)); err != nil {
		return err
	}
	if dials-1 != len(kills) {
		return fmt.Errorf("redialed %d times for %d scheduled cuts", dials-1, len(kills))
	}
	return nil
}

// regionalRecorder collects one regional rep's timings. Each region's row
// is written only by that region's goroutine, each edge's by that edge's.
type regionalRecorder struct {
	tr       *tracer   // nil when untraced
	arrivals [][]int64 // [region][slot]: first arrival of the slot's assign
	lastSlot []int     // [region]: the slot being served, for delta writes
	writes   [][]int64 // [region][slot]: end of the slot's delta write
	cutAt    []int64   // [region]: when the upstream link was cut, 0 if up
	entries  [][]int64 // [edge][slot]: RunSlot entry
	busy     []int64   // [edge]: total RunSlot time
	wire     atomic.Int64
	memOnce  sync.Once
	mem0     memSnap
	edges    int
	horizon  int
}

func newRegionalRecorder(w *regional, tr *tracer) *regionalRecorder {
	rec := &regionalRecorder{
		tr:       tr,
		arrivals: make([][]int64, w.regions),
		lastSlot: make([]int, w.regions),
		writes:   make([][]int64, w.regions),
		cutAt:    make([]int64, w.regions),
		edges:    w.edges,
		horizon:  w.horizon,
	}
	for r := range rec.arrivals {
		rec.arrivals[r] = make([]int64, w.horizon)
		rec.writes[r] = make([]int64, w.horizon)
		rec.lastSlot[r] = -1
	}
	if tr != nil {
		rec.entries = make([][]int64, w.edges)
		for i := range rec.entries {
			rec.entries[i] = make([]int64, w.horizon)
		}
		rec.busy = make([]int64, w.edges)
	}
	return rec
}

// arrive records region r receiving the assign of slot; a replayed assign
// after a resume keeps the first arrival.
func (rec *regionalRecorder) arrive(r, slot int) {
	t := now()
	if slot == 0 && rec.tr != nil {
		rec.memOnce.Do(func() { rec.mem0 = readMem() })
	}
	if rec.arrivals[r][slot] == 0 {
		rec.arrivals[r][slot] = t
	}
	rec.lastSlot[r] = slot
	if rec.cutAt[r] != 0 {
		rec.tr.spans.add(span{kind: spanResume, parent: spanSlot, actor: int32(r), rep: rec.tr.rep, slot: int32(slot), start: rec.cutAt[r], end: t})
		rec.cutAt[r] = 0
	}
}

func (rec *regionalRecorder) firstArrival() int64 {
	first := rec.arrivals[0][0]
	for _, row := range rec.arrivals {
		first = min(first, row[0])
	}
	return first
}

// upstreamConn watches a region's root link: it counts bytes, marks when
// each slot's delta finished writing, and notes when the link was cut.
// deploy.WriteMessage writes a frame as a header then a body, so every
// second write ends a frame.
type upstreamConn struct {
	net.Conn
	rec    *regionalRecorder
	region int
	body   bool
}

func (c *upstreamConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.rec.wire.Add(int64(n))
	if err != nil && c.rec.cutAt[c.region] == 0 {
		c.rec.cutAt[c.region] = now()
	}
	return n, err
}

func (c *upstreamConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.rec.wire.Add(int64(n))
	if c.body {
		if slot := c.rec.lastSlot[c.region]; slot >= 0 && err == nil && c.rec.writes[c.region][slot] == 0 {
			c.rec.writes[c.region][slot] = now()
		}
	}
	c.body = !c.body
	return n, err
}

// stampRuntime records when an edge enters each slot's RunSlot and how
// long its runtime is busy.
type stampRuntime struct {
	deploy.Runtime
	entries []int64
	busy    *int64
}

func (s *stampRuntime) RunSlot(slot, modelID int) (deploy.SlotReport, error) {
	start := now()
	if slot < len(s.entries) {
		s.entries[slot] = start
	}
	rep, err := s.Runtime.RunSlot(slot, modelID)
	*s.busy += now() - start
	return rep, err
}

// layers derives a traced rep's per-layer metrics. Per region and slot the
// fan-out runs from the assign's arrival to the last of the region's edges
// entering RunSlot, and the collect from there to the delta's write; the
// root's turnaround runs from the slot's last delta write to the next
// slot's first arrival.
func (rec *regionalRecorder) layers(tr *tracer, summary *deploy.Summary, mem memSnap, t0, tScenario int64) map[string]float64 {
	ranges := engine.PartitionEdges(rec.edges, len(rec.arrivals))
	var fanout, collect, turnaround []float64
	explained, total := 0.0, 0.0
	for t := 0; t < rec.horizon; t++ {
		var lastWrite int64
		var r0 float64
		for r, rg := range ranges {
			var lastEntry int64
			for i := rg.Start; i < rg.Start+rg.Count; i++ {
				lastEntry = max(lastEntry, rec.entries[i][t])
			}
			arr, wr := rec.arrivals[r][t], rec.writes[r][t]
			tr.spans.add(span{kind: spanFanout, parent: spanSlot, actor: int32(r), rep: tr.rep, slot: int32(t), start: arr, end: lastEntry})
			tr.spans.add(span{kind: spanCollect, parent: spanSlot, actor: int32(r), rep: tr.rep, slot: int32(t), start: lastEntry, end: wr})
			fanout = append(fanout, float64(lastEntry-arr)/1e6)
			collect = append(collect, float64(wr-lastEntry)/1e6)
			if r == 0 {
				r0 = float64(wr - arr)
			}
			lastWrite = max(lastWrite, wr)
		}
		if t+1 < rec.horizon {
			next := rec.arrivals[0][t+1]
			for r := range rec.arrivals {
				next = min(next, rec.arrivals[r][t+1])
			}
			tr.spans.add(span{kind: spanTurnaround, parent: spanSlot, rep: tr.rep, slot: int32(t), start: lastWrite, end: next})
			turnaround = append(turnaround, float64(next-lastWrite)/1e6)
			explained += r0 + float64(next-lastWrite)
			total += float64(rec.arrivals[0][t+1] - rec.arrivals[0][t])
		}
	}
	waits := make([]float64, 0, rec.edges)
	for i, row := range rec.entries {
		if window := row[len(row)-1] - row[0]; window > 0 {
			waits = append(waits, 1-float64(rec.busy[i])/float64(window))
		}
	}
	var resumeMS []float64
	for _, s := range tr.spans.recorded() {
		if s.kind == spanResume {
			resumeMS = append(resumeMS, float64(s.end-s.start)/1e6)
		}
	}
	retries := 0
	for _, n := range summary.RegionRetries {
		retries += n
	}
	for _, n := range summary.Retries {
		retries += n
	}
	resumes := 0
	for _, n := range summary.RegionResumes {
		resumes += n
	}
	edgeSlots := float64(rec.edges * rec.horizon)
	first := rec.firstArrival()
	return map[string]float64{
		"deploy.wire_bytes_per_edge_slot": float64(rec.wire.Load()) / edgeSlots,
		"deploy.region_fanout_ms_p50":     median(fanout),
		"deploy.region_collect_ms_p50":    median(collect),
		"deploy.root_turnaround_ms_p50":   median(turnaround),
		"deploy.edge_wait_share":          sum(waits) / float64(max(len(waits), 1)),
		"deploy.resume_ms_p50":            median(resumeMS),
		"deploy.region_resumes":           float64(resumes),
		"deploy.retries":                  float64(retries),
		"ladder.explained_share":          explained / total,
		"setup.scenario_s":                float64(tScenario-t0) / 1e9,
		"setup.admit_s":                   float64(first-tScenario) / 1e9,
		"go.alloc_bytes_per_edge_slot":    float64(mem.bytes-rec.mem0.bytes) / edgeSlots,
		"go.allocs_per_edge_slot":         float64(mem.allocs-rec.mem0.allocs) / edgeSlots,
		"go.gc_cycles":                    float64(mem.gcs - rec.mem0.gcs),
	}
}

func (w *regional) oracle(seed int64, _ *repResult) (string, error) {
	cc, err := w.config(seed)
	if err != nil {
		return "", err
	}
	world := newSynthWorld(seed)
	rts := make([]deploy.Runtime, w.edges)
	for i := range rts {
		rts[i] = world.runtime(i)
	}
	sum, err := deployOracle(cc, &synthSource{w: world}, rts)
	if err != nil {
		return "", err
	}
	return digestOf(sum)
}
