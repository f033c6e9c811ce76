package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"pac/internal/acache"
	"pac/internal/core"
	"pac/internal/data"
	"pac/internal/nn"
	"pac/internal/serve"
)

// corpus is a synthetic SST-2 training set plus a disjoint held-out set.
func corpus(ts trainSpec, seed int64) (train, eval *data.Dataset) {
	ds := data.Generate(data.GenConfig{Task: data.SST2, Size: ts.Samples + ts.Heldout,
		SeqLen: ts.SeqLen, Vocab: ts.Model.Vocab, Seed: seed})
	train, eval = &data.Dataset{}, &data.Dataset{}
	*train, *eval = *ds, *ds
	train.Examples = ds.Examples[:ts.Samples]
	eval.Examples = ds.Examples[ts.Samples:]
	return train, eval
}

// newFramework builds a PAC deployment (Adam, in-memory cache, default
// micro-batches); a traced run installs its decorators through the
// Config hooks.
func newFramework(ts trainSpec, pr *probes) *core.Framework {
	cfg := core.Config{Model: ts.Model, Stages: ts.Stages, Lanes: ts.Lanes, Adam: true, LR: ts.LR}
	if pr != nil {
		cfg.Cache = pr.wrapStore(acache.NewMemoryStore())
		cfg.WrapTransport = pr.wrapTransport
		cfg.Health = pr.health
	}
	return core.New(cfg)
}

// job is one fine-tuning run on one framework.
type job struct {
	ts          trainSpec
	f           *core.Framework
	train, eval *data.Dataset
	loader      *data.Loader
}

// stageTimes is what a fine-tuning repetition measured.
type stageTimes struct {
	phase1, redistribute, cached float64 // seconds
	losses                       []float64
	accuracy                     float64 // -1 when not evaluated
	finalLoss                    float64
	partsResidual                float64 // traced runs only
}

// phase1 runs the hybrid epoch and Redistribute (paper Steps 4–5).
func (j *job) phase1(ctx context.Context, pr *probes, st *stageTimes) error {
	var before map[[2]int]device
	if pr != nil {
		before = pr.devices()
	}
	end := pr.phase(true, "phase1")
	t0 := time.Now()
	loss, err := j.f.Phase1EpochCtx(ctx, j.loader, 0)
	st.phase1 = time.Since(t0).Seconds()
	end()
	if err != nil {
		return fmt.Errorf("phase 1: %w", err)
	}
	if pr != nil {
		st.partsResidual = partsResidual(before, pr.devices(), st.phase1)
	}
	st.losses = append(st.losses, loss)
	end = pr.phase(true, "redistribute")
	t0 = time.Now()
	err = j.f.Redistribute(j.train)
	st.redistribute = time.Since(t0).Seconds()
	end()
	if err != nil {
		return fmt.Errorf("redistribute: %w", err)
	}
	return nil
}

// cachedEpochs runs epochs [start, start+n) from the cache.
func (j *job) cachedEpochs(ctx context.Context, pr *probes, start, n int) (loss, sec float64, err error) {
	end := pr.phase(true, "cached")
	t0 := time.Now()
	loss, err = j.f.CachedEpochsCtx(ctx, j.loader, start, n)
	sec = time.Since(t0).Seconds()
	end()
	if err != nil {
		return 0, 0, fmt.Errorf("cached epochs: %w", err)
	}
	return loss, sec, nil
}

func (j *job) evaluate(pr *probes) float64 {
	defer pr.phase(true, "evaluate")()
	return j.f.Evaluate(j.eval, j.ts.Batch).Accuracy
}

// newJob builds a job; the framework's construction time is returned
// separately so callers can count it as set-up.
func newJob(ts trainSpec, seed int64, train, eval *data.Dataset, pr *probes) (*job, float64) {
	t0 := time.Now()
	f := newFramework(ts, pr)
	return &job{ts: ts, f: f, train: train, eval: eval,
		loader: data.NewLoader(train, ts.Batch, seed)}, time.Since(t0).Seconds()
}

// fullCycle is the PAC workflow the finetune_s metric times: phase 1,
// Redistribute, CachedEpochs cached epochs; then, when eval is set,
// held-out evaluation (accuracy is -1 otherwise).
func (j *job) fullCycle(ctx context.Context, pr *probes, eval bool) (stageTimes, error) {
	st := stageTimes{accuracy: -1}
	if err := j.phase1(ctx, pr, &st); err != nil {
		return st, err
	}
	loss, sec, err := j.cachedEpochs(ctx, pr, 1, j.ts.CachedEpochs)
	if err != nil {
		return st, err
	}
	st.cached = sec
	st.losses = append(st.losses, loss)
	st.finalLoss = loss
	if eval {
		st.accuracy = j.evaluate(pr)
	}
	return st, nil
}

// checkJob runs the fine-tuning correctness checks after a cycle: the
// cache covers every training sample, no sample was recomputed, every
// epoch loss is finite and held-out accuracy, when evaluated, reaches
// the job's floor.
func (j *job) checkJob(ck *checks, st stageTimes) {
	ck.expect("cache covers every sample", j.f.Cache().Len() == j.train.Len() && j.f.CoverageMissing == 0,
		"cache holds %d of %d samples, %d missing", j.f.Cache().Len(), j.train.Len(), j.f.CoverageMissing)
	ck.expect("no cached-epoch recomputation", j.f.Recomputed() == 0, "recomputed %d", j.f.Recomputed())
	finite := true
	for _, l := range st.losses {
		finite = finite && !math.IsNaN(l) && !math.IsInf(l, 0)
	}
	ck.expect("every epoch loss finite", finite, "losses %v", st.losses)
	if j.ts.AccuracyFloor > 0 && st.accuracy >= 0 {
		ck.expect("held-out accuracy beats chance", st.accuracy >= j.ts.AccuracyFloor,
			"accuracy %.4f < %.2f", st.accuracy, j.ts.AccuracyFloor)
	}
}

// trainer runs cached epochs beside live serving, starting one every
// epochEvery (right away when the previous one overran) and pushing the
// adapters into the server after every epoch. Each run continues the
// epoch count of the one before; after evalEpoch epochs it takes the
// held-out accuracy.
type trainer struct {
	evalEpoch int
	epochSec  []float64
	pushSec   []float64
	losses    []float64
	accuracy  float64
	lastPush  []float32
	err       error
}

// run trains until stop closes, and on past it until at least atLeast
// epochs ran in all.
func (tr *trainer) run(ctx context.Context, j *job, srv *serve.Server, pr *probes, stop <-chan struct{}, atLeast int) {
	next := time.Now()
	for {
		e := len(tr.epochSec) + 1
		select {
		case <-stop:
			if e > atLeast {
				return
			}
		default:
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		next = next.Add(epochEvery)
		if now := time.Now(); next.Before(now) {
			next = now
		}
		loss, sec, err := j.cachedEpochs(ctx, pr, e, 1)
		if err != nil {
			tr.err = err
			return
		}
		tr.epochSec = append(tr.epochSec, sec)
		tr.losses = append(tr.losses, loss)
		flat := nn.FlattenParams(j.f.Reference().Trainable())
		t0 := time.Now()
		srv.UpdateWeights(flat)
		tr.pushSec = append(tr.pushSec, time.Since(t0).Seconds())
		tr.lastPush = flat
		if e == tr.evalEpoch {
			tr.accuracy = j.evaluate(pr)
		}
	}
}
