package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"

	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/deploy"
	"github.com/carbonedge/carbonedge/internal/market"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/nn"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// edgeNN is the neural-network workload: a deploy.Cloud ships the trained
// MNIST-like zoo through deploy.ZooSource to RunEdge agents over loopback
// TCP, and each agent serves its stream with deploy.NNRuntime in INT8 mode,
// the serving fast path. Steady slots measure the NN kernels; slots that
// switch model ship a checkpoint and recompile it.
type edgeNN struct {
	edges, horizon, samples int
	trainN, epochs, pool    int
}

// zooSeed trains the zoo (and draws the data distribution it shares with
// the edges) as carbonedge-cloud does at its default -seed. The zoo is the
// model set under test, fixed across runs; the workload seed varies the
// traffic: prices, the controller's sampling, and each edge's pool and
// stream.
const zooSeed = 1

// chunk is NNRuntime's batch size for one forward pass; the kernel rung
// times ForwardBatch at the same size.
const chunk = 64

func (w *edgeNN) digestTable() string { return "edge-nn" }
func (w *edgeNN) edgeSlots() int      { return w.edges * w.horizon }
func (w *edgeNN) spanCapacity() int   { return 3 * w.edges * w.horizon }

// nnArtifacts is what a rep leaves for the oracle and the kernel rung.
type nnArtifacts struct {
	dist       *dataset.Distribution
	source     *deploy.ZooSource
	selections []int // slots each model served, over every edge
}

// train builds the zoo exactly as carbonedge-cloud does.
func (w *edgeNN) train() (*dataset.Distribution, *models.TrainedZoo, error) {
	spec := dataset.MNISTLike
	dist, err := dataset.NewDistribution(spec, numeric.SplitRNG(zooSeed, "dist"))
	if err != nil {
		return nil, nil, err
	}
	zoo, err := models.NewTrainedZoo(models.TrainedZooConfig{
		Dataset: spec,
		Dist:    dist,
		TrainN:  w.trainN, TestN: w.trainN, Epochs: w.epochs, LR: 0.05, BatchSize: 16,
	}, numeric.SplitRNG(zooSeed, "zoo"))
	return dist, zoo, err
}

func (w *edgeNN) config(seed int64) (deploy.CloudConfig, error) {
	prices, err := market.GeneratePrices(market.DefaultPriceConfig(), w.horizon, numeric.SplitRNG(seed, "prices"))
	if err != nil {
		return deploy.CloudConfig{}, err
	}
	costs := make([]float64, w.edges)
	for i := range costs {
		costs[i] = 0.8 + 0.3*float64(i)
	}
	return deploy.CloudConfig{
		Edges:         w.edges,
		Horizon:       w.horizon,
		DownloadCosts: costs,
		InitialCap:    0.002,
		EmissionRate:  500,
		Prices:        prices,
		EmissionScale: 2e-4,
		Seed:          seed,
	}, nil
}

// pool is edge's local data pool and serving stream, as carbonedge-edge
// draws them.
func (w *edgeNN) poolFor(seed int64, dist *dataset.Distribution, edge int) ([]nn.Sample, *rand.Rand) {
	rng := numeric.SplitRNG(seed, fmt.Sprintf("edge-%d", edge))
	return dist.Pool(w.pool, rng), rng
}

// runtime builds edge's INT8 NNRuntime, serving about w.samples samples a
// slot.
func (w *edgeNN) runtime(seed int64, dist *dataset.Distribution, edge int) (*deploy.NNRuntime, error) {
	pool, rng := w.poolFor(seed, dist, edge)
	base := w.samples - 7
	rt, err := deploy.NewNNRuntime(
		func(modelID int) (*nn.Network, error) {
			return models.NewFamilyNetwork(dataset.MNISTLike, modelID, numeric.SplitRNG(zooSeed, "arch"))
		},
		pool,
		func(slot int) int { return base + (slot+edge)%15 },
		func(modelID int) float64 { return 0.025 + 0.02*float64(modelID) },
		rng,
	)
	if err != nil {
		return nil, err
	}
	rt.Int8 = true
	return rt, nil
}

func (w *edgeNN) rep(seed int64, tr *tracer) (*repResult, error) {
	t0 := now()
	dist, zoo, err := w.train()
	if err != nil {
		return nil, err
	}
	tTrained := now()
	src, err := deploy.NewZooSource(zoo)
	if err != nil {
		return nil, err
	}
	var source deploy.ModelSource = src
	counted := &countingSource{ModelSource: src}
	if tr != nil {
		source = counted
	}
	cc, err := w.config(seed)
	if err != nil {
		return nil, err
	}
	cloud, err := deploy.NewCloud(cc, source)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	rts := make([]*nnStamp, w.edges)
	for e := range rts {
		rt, err := w.runtime(seed, dist, e)
		if err != nil {
			return nil, err
		}
		rts[e] = newNNStamp(rt, w.horizon, tr, e)
	}
	tScenario := now()

	var wire atomic.Int64
	var wg sync.WaitGroup
	edgeErrs := make([]error, w.edges)
	for e, rt := range rts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				edgeErrs[e] = err
				ln.Close() // the cloud must not wait for an edge that cannot dial
				return
			}
			defer conn.Close()
			var c net.Conn = conn
			if tr != nil {
				c = &countingConn{Conn: conn, bytes: &wire}
			}
			edgeErrs[e] = deploy.RunEdge(c, e, rt)
		}()
	}
	sum, err := cloud.Serve(ln)
	tEnd := now()
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("cloud: %w", err)
	}
	for e, err := range edgeErrs {
		if err != nil {
			return nil, fmt.Errorf("edge %d: %w", e, err)
		}
	}
	digest, err := digestOf(sum)
	if err != nil {
		return nil, err
	}
	selections := make([]int, src.NumModels())
	for _, row := range sum.Selections {
		for n, c := range row {
			selections[n] += c
		}
	}
	first := rts[0].starts[0]
	r := &repResult{
		attempted: w.edges * w.horizon,
		dropped:   sum.DroppedSlots,
		setupNS:   first - t0,
		runNS:     tEnd - first,
		served:    w.edges*w.horizon - sum.DroppedSlots,
		starts:    rts[0].starts,
		digest:    digest,
		artifacts: &nnArtifacts{dist: dist, source: src, selections: selections},
	}
	if tr != nil {
		r.layers = w.layers(rts, counted, &wire, t0, tTrained, tScenario)
	}
	return r, nil
}

// layers derives a traced rep's per-layer metrics from the edges' runtime
// spans, the wire and checkpoint counters, and set-up timestamps.
func (w *edgeNN) layers(rts []*nnStamp, src *countingSource, wire *atomic.Int64, t0, tTrained, tScenario int64) map[string]float64 {
	var runNS, samples, loads int64
	var loadMS, waits []float64
	for _, rt := range rts {
		runNS += rt.runNS
		samples += rt.samples
		loads += int64(len(rt.loadMS))
		loadMS = append(loadMS, rt.loadMS...)
		busy := rt.runNS
		for _, ms := range rt.loadMS {
			busy += int64(ms * 1e6)
		}
		if window := rt.lastEnd - rt.starts[0]; window > 0 {
			waits = append(waits, 1-float64(busy)/float64(window))
		}
	}
	// The slot ladder: how much of edge 0's slot time its own runtime
	// (loading plus serving) explains; the rest is the wire and the cloud.
	e0 := rts[0]
	busy0 := e0.runNS
	for _, ms := range e0.loadMS {
		busy0 += int64(ms * 1e6)
	}
	edgeSlots := float64(w.edges * w.horizon)
	return map[string]float64{
		"nn.run_slot_us_per_sample":       float64(runNS) / 1e3 / float64(samples),
		"nn.load_model_ms_p50":            median(loadMS),
		"nn.load_models":                  float64(loads),
		"deploy.ckpt_mb_shipped":          float64(src.bytes.Load()) / 1e6,
		"deploy.wire_bytes_per_edge_slot": float64(wire.Load()) / edgeSlots,
		"deploy.edge_wait_share":          sum(waits) / float64(max(len(waits), 1)),
		"ladder.explained_share":          float64(busy0) / float64(e0.lastEnd-e0.starts[0]),
		"models.zoo_train_s":              float64(tTrained-t0) / 1e9,
		"setup.scenario_s":                float64(tScenario-t0) / 1e9,
		"setup.admit_s":                   float64(e0.starts[0]-tScenario) / 1e9,
		"go.alloc_bytes_per_edge_slot":    float64(e0.mem1.bytes-e0.mem0.bytes) / edgeSlots,
		"go.allocs_per_edge_slot":         float64(e0.mem1.allocs-e0.mem0.allocs) / edgeSlots,
		"go.gc_cycles":                    float64(e0.mem1.gcs - e0.mem0.gcs),
	}
}

func (w *edgeNN) oracle(seed int64, last *repResult) (string, error) {
	var art *nnArtifacts
	if last != nil {
		art = last.artifacts.(*nnArtifacts)
	} else {
		dist, zoo, err := w.train()
		if err != nil {
			return "", err
		}
		src, err := deploy.NewZooSource(zoo)
		if err != nil {
			return "", err
		}
		art = &nnArtifacts{dist: dist, source: src}
	}
	cc, err := w.config(seed)
	if err != nil {
		return "", err
	}
	rts := make([]deploy.Runtime, w.edges)
	for e := range rts {
		rt, err := w.runtime(seed, art.dist, e)
		if err != nil {
			return "", err
		}
		rts[e] = rt
	}
	sum, err := deployOracle(cc, art.source, rts)
	if err != nil {
		return "", err
	}
	return digestOf(sum)
}

// extras is the kernel rung under nn.run_slot_us_per_sample: ForwardBatch
// of every zoo model at the runtime's chunk size, float and INT8, averaged
// with the traced reps' model selections as weights.
func (w *edgeNN) extras(seed int64, _, traced []*repResult) (map[string]float64, error) {
	art := traced[len(traced)-1].artifacts.(*nnArtifacts)
	pool, _ := w.poolFor(seed, art.dist, 0)
	in := nn.NewTensor(append([]int{chunk}, pool[0].X.Shape...)...)
	n := pool[0].X.Len()
	for j := 0; j < chunk; j++ {
		copy(in.Data[j*n:(j+1)*n], pool[j%len(pool)].X.Data)
	}
	var f32, i8, flops, weight float64
	for m, sel := range art.selections {
		if sel == 0 {
			continue
		}
		fnet, err := w.loadNet(art.source, m)
		if err != nil {
			return nil, err
		}
		qsrc, err := w.loadNet(art.source, m)
		if err != nil {
			return nil, err
		}
		qw := nn.QuantizeWeights(qsrc)
		if err := qw.ApplyTo(qsrc); err != nil {
			return nil, err
		}
		q, err := nn.NewQuantizedNetwork(qsrc, qw, in)
		if err != nil {
			return nil, err
		}
		wt := float64(sel)
		f32 += wt * timeForward(func(a *nn.Arena) { fnet.ForwardBatch(in, a) })
		i8 += wt * timeForward(func(a *nn.Arena) { q.ForwardBatch(in, a) })
		flops += wt * float64(fnet.ForwardFLOPs())
		weight += wt
	}
	out := map[string]float64{
		"nn.f32_forward_us_per_sample":  f32 / weight,
		"nn.int8_forward_us_per_sample": i8 / weight,
		"nn.mflop_per_sample":           flops / weight / 1e6,
	}
	var runSlot []float64
	for _, r := range traced {
		runSlot = append(runSlot, r.layers["nn.run_slot_us_per_sample"])
	}
	out["nn.forward_share_of_run_slot"] = out["nn.int8_forward_us_per_sample"] / median(runSlot)
	return out, nil
}

// loadNet rebuilds model m and installs its shipped checkpoint, as an edge
// does on a switch.
func (w *edgeNN) loadNet(src *deploy.ZooSource, m int) (*nn.Network, error) {
	net, err := models.NewFamilyNetwork(dataset.MNISTLike, m, numeric.SplitRNG(zooSeed, "arch"))
	if err != nil {
		return nil, err
	}
	ckpt, err := src.Checkpoint(m)
	if err != nil {
		return nil, err
	}
	return net, nn.ReadWeights(bytes.NewReader(ckpt), net)
}

// timeForward returns the median microseconds per sample of a chunk-sized
// forward pass, after a warm-up pass.
func timeForward(forward func(*nn.Arena)) float64 {
	a := nn.NewArena()
	forward(a)
	per := make([]float64, 0, 15)
	for i := 0; i < 15; i++ {
		a.Reset()
		start := now()
		forward(a)
		per = append(per, float64(now()-start)/1e3/chunk)
	}
	return median(per)
}

// countingSource counts the checkpoint bytes the cloud ships.
type countingSource struct {
	deploy.ModelSource
	bytes atomic.Int64
}

func (s *countingSource) Checkpoint(n int) ([]byte, error) {
	b, err := s.ModelSource.Checkpoint(n)
	s.bytes.Add(int64(len(b)))
	return b, err
}

// nnStamp wraps an edge's runtime: it marks each slot's start at the
// assign's arrival (the LoadModel of a switching slot, else RunSlot) and,
// when traced, times LoadModel and RunSlot and records their spans.
type nnStamp struct {
	deploy.Runtime
	tr      *tracer
	edge    int
	starts  []int64
	pending int64 // LoadModel entry of the slot about to run
	next    int   // the slot about to run: sessions serve slots in order

	runNS, samples int64
	loadMS         []float64
	lastEnd        int64
	mem0, mem1     memSnap
}

func newNNStamp(rt deploy.Runtime, horizon int, tr *tracer, edge int) *nnStamp {
	s := &nnStamp{Runtime: rt, tr: tr, edge: edge, starts: make([]int64, horizon)}
	if tr != nil {
		s.loadMS = make([]float64, 0, horizon)
	}
	return s
}

func (s *nnStamp) LoadModel(modelID int, checkpoint []byte) error {
	start := now()
	err := s.Runtime.LoadModel(modelID, checkpoint)
	if s.tr != nil {
		end := now()
		s.loadMS = append(s.loadMS, float64(end-start)/1e6)
		s.tr.spans.add(span{kind: spanLoadModel, parent: spanSlot, actor: int32(s.edge), rep: s.tr.rep, slot: int32(s.next), start: start, end: end})
	}
	s.pending = start
	return err
}

func (s *nnStamp) RunSlot(slot, modelID int) (deploy.SlotReport, error) {
	start := now()
	arrival := start
	if s.pending != 0 {
		arrival, s.pending = s.pending, 0
	}
	if slot < len(s.starts) {
		s.starts[slot] = arrival
	}
	s.next = slot + 1
	if s.tr != nil && slot == 0 && s.edge == 0 {
		s.mem0 = readMem()
		start = now()
	}
	rep, err := s.Runtime.RunSlot(slot, modelID)
	end := now()
	if s.tr != nil {
		s.runNS += end - start
		s.samples += int64(rep.Samples)
		s.lastEnd = end
		s.tr.spans.add(span{kind: spanRunSlot, parent: spanSlot, actor: int32(s.edge), rep: s.tr.rep, slot: int32(slot), start: start, end: end})
		if s.edge == 0 && slot == len(s.starts)-1 {
			s.mem1 = readMem()
		}
	}
	return rep, err
}
