package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"github.com/carbonedge/carbonedge/internal/core"
	"github.com/carbonedge/carbonedge/internal/deploy"
	"github.com/carbonedge/carbonedge/internal/energy"
	"github.com/carbonedge/carbonedge/internal/engine"
)

// digestsJSON holds the summary digest of each workload (keyed by digest
// table) and seed, as recorded from full-size runs: table → seed → digest.
//
//go:embed digests.json
var digestsJSON []byte

// recordedDigest looks up the recorded digest for a table and seed.
func recordedDigest(table string, seed int64) (string, bool) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return "", false
	}
	d, ok := all[table][strconv.FormatInt(seed, 10)]
	return d, ok
}

// digestOf is the first 16 bytes of the SHA-256 of v's JSON encoding,
// which keeps every float's exact bits.
func digestOf(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:16]), nil
}

// stripElasticity drops the region-tier fault counters, leaving the
// summary a fault-free run reports.
func stripElasticity(s *deploy.Summary) *deploy.Summary {
	cp := *s
	cp.RegionResumes, cp.RegionRetries, cp.Rebalances = nil, nil, nil
	return &cp
}

// deployOracle replays a deployment in process: the controller and engine
// a Cloud or Root builds, stepping each edge's Runtime directly instead of
// over the wire. The deploy tier promises this summary bit for bit, so it
// checks any seed without a recorded digest.
func deployOracle(cc deploy.CloudConfig, src deploy.ModelSource, rts []deploy.Runtime) (*deploy.Summary, error) {
	n := src.NumModels()
	ctrl, err := core.New(core.Config{
		NumModels:     n,
		DownloadCosts: cc.DownloadCosts,
		Horizon:       cc.Horizon,
		InitialCap:    cc.InitialCap,
		EmissionScale: cc.EmissionScale,
		PriceScale:    avgBuyPrice(cc),
		Seed:          cc.Seed,
	})
	if err != nil {
		return nil, err
	}
	metas := make([]deploy.ModelMeta, n)
	for m := range metas {
		metas[m] = src.Meta(m)
	}
	steppers := make([]engine.EdgeStepper, len(rts))
	for i, rt := range rts {
		if err := rt.Welcome(metas); err != nil {
			return nil, err
		}
		steppers[i] = &oracleStepper{rt: rt, src: src}
	}
	res, err := engine.Run(engine.Config{
		Name:         "deploy",
		Horizon:      cc.Horizon,
		NumModels:    n,
		InitialCap:   cc.InitialCap,
		EmissionRate: cc.EmissionRate,
		Prices:       cc.Prices,
		SwitchCosts:  cc.DownloadCosts,
		Workers:      2,
	}, ctrl, steppers)
	if err != nil {
		return nil, err
	}
	return &deploy.Summary{
		ObservedLoss: res.Cost.InferLoss + res.Cost.Compute,
		TradingCost:  res.Cost.Trading,
		Emissions:    res.Emissions,
		Decisions:    res.Decisions,
		Fit:          res.Fit,
		Switches:     res.Switches,
		Accuracy:     res.OverallAccuracy,
		Selections:   res.Selections,
		Downtime:     res.Downtime,
		DroppedSlots: res.DroppedSlots,
		Retries:      res.Retries,
		Resumes:      make([]int, len(rts)),
		DownErrors:   res.DownErrors,
	}, nil
}

// avgBuyPrice is the price scale a Cloud or Root hands Algorithm 2: the
// mean buy quote over the horizon.
func avgBuyPrice(cc deploy.CloudConfig) float64 {
	avg := 0.0
	for t := 0; t < cc.Horizon; t++ {
		avg += cc.Prices.Buy[t]
	}
	return avg / float64(cc.Horizon)
}

// oracleStepper serves one edge in process exactly as the cloud's wire
// stepper would: ship the checkpoint on a switch, run the slot, and turn
// the report into the engine's observation.
type oracleStepper struct {
	rt  deploy.Runtime
	src deploy.ModelSource
}

// Step implements engine.EdgeStepper.
//
//lint:cold the oracle replays once, after the timed reps; nothing it allocates is measured
func (s *oracleStepper) Step(slot, arm int, download bool) (engine.Observation, error) {
	if download {
		ckpt, err := s.src.Checkpoint(arm)
		if err != nil {
			return engine.Observation{}, err
		}
		if err := s.rt.LoadModel(arm, ckpt); err != nil {
			return engine.Observation{}, err
		}
	}
	rep, err := s.rt.RunSlot(slot, arm)
	if err != nil {
		return engine.Observation{}, err
	}
	return engine.Observation{
		Loss:        rep.AvgLoss + rep.CompSeconds,
		InferLoss:   rep.AvgLoss,
		Compute:     rep.CompSeconds,
		Correct:     rep.Correct,
		Samples:     rep.Samples,
		InferKWh:    rep.EnergyKWh,
		TransferKWh: energy.TransferEnergy(energy.TransferEnergyPerByte, s.src.Meta(arm).SizeBytes),
	}, nil
}
