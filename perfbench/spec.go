package main

import (
	"fmt"
	"time"

	"pac/internal/model"
)

// trainSpec fixes one PAC fine-tuning job: the model, the device grid
// (Stages × Lanes goroutine devices in phase 1, as many data-parallel
// workers in the cached epochs) and the synthetic SST-2 dataset.
type trainSpec struct {
	Model         model.Config
	Stages, Lanes int
	Samples       int // training examples
	Heldout       int // separate evaluation examples
	Batch         int
	// CachedEpochs is the number of cached epochs finetune_s counts.
	CachedEpochs int
	// EvalEpoch is the epoch after which a concurrent run takes held-out
	// accuracy; it runs at least that many. On model.Small the accuracy
	// after epoch 3 spread 0.11 (IQR over median, 10 seeds), after epoch
	// 20 0.045.
	EvalEpoch int
	SeqLen    int
	// LR is the Adam learning rate; 0 keeps the framework default 0.01,
	// under which the hidden-128 model overfits 256 samples and ends
	// near chance on some seeds.
	LR float32
	// AccuracyFloor is the held-out accuracy the job must reach; 0 skips
	// the check. Chance is 0.5 on the balanced binary task, and on 256
	// held-out samples chance alone reaches 0.55 with probability below
	// 0.06. The model.Small jobs report their accuracy unchecked: on a
	// frozen random backbone it averages about 0.59 and dips toward
	// chance on some seeds.
	AccuracyFloor float64
}

// serveSpec fixes the serving traffic: an open-loop Poisson stream at
// QPS against an LM-configured model.Small server, GenFrac of it greedy
// generate requests, payloads drawn from fixed pools whose serial
// reference outputs are computed during set-up.
type serveSpec struct {
	QPS     float64
	GenFrac float64
	MaxLen  int // generate decoding cap, the same for every generate request
	Users   int
	Zipf    float64
	SeqLen  int
	Pool    int // distinct classify payloads
	GenPool int // distinct generate payloads
}

// workload is one benchmark workload. Every workload fine-tunes with
// the PAC workflow and serves traffic, because every end-to-end metric
// is reported for every workload; the shares of the measured time say
// which half dominates. Concurrent workloads train and serve at once.
type workload struct {
	Name  string
	Train trainSpec
	Serve serveSpec
	// A run is Rounds rounds; each gives its share of --seconds to
	// fine-tuning repetitions, then to an open-loop stream slice, then to
	// a closed-loop capacity slice. With Concurrent set, the repetitions
	// are phase 1 alone and cached epochs run beside the serving slices.
	Rounds                             int
	TrainShare, OpenShare, ClosedShare float64
	Concurrent                         bool
}

// setups is how many times a run repeats its set-up; setup_s is the median.
const setups = 3

// epochEvery paces the concurrent workload's cached epochs: training
// arrives on a schedule, like the requests, so both sides offer a fixed
// load. Back-to-back epochs oversubscribe the two cores and made
// serving latency swing by half between runs; at one epoch per 200 ms
// a run whose phase 1 ran a quarter slower than others had twice their
// serve_p50_ms.
const epochEvery = 400 * time.Millisecond

// partsTolerance bounds how far a phase-1 device's compute, send and
// receive-wait may fall short of (or exceed) the phase wall time, as a
// share of it. The remainder is the optimizer step, step launch and the
// end-of-step barrier.
const partsTolerance = 0.10

func finetuneModel() model.Config {
	return model.Config{Name: "Bench128", Vocab: 256, Layers: 4, Heads: 4, Hidden: 128,
		FFDim: 256, MaxSeq: 32, NumClasses: 2, Seed: 1}
}

func smallClassifier() model.Config {
	return model.Small()
}

func smallLM() model.Config {
	cfg := model.Small()
	cfg.Name = "SmallLM"
	cfg.LM = true
	cfg.NumClasses = cfg.Vocab
	return cfg
}

var traffic = serveSpec{QPS: 300, GenFrac: 0.05, MaxLen: 8, Users: 64, Zipf: 1.1,
	SeqLen: 32, Pool: 256, GenPool: 32}

// classifyTraffic is the same stream classify-only, served beside
// training; generate requests are measured on finetune's slices, where
// nothing trains beside them.
var classifyTraffic = serveSpec{QPS: 300, Users: 64, Zipf: 1.1, SeqLen: 32, Pool: 256}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []workload{
	{
		// The paper's workflow: phase 1 on a 2×2 hybrid grid fills the
		// cache, then cached epochs train the adapters alone. Between
		// repetitions the agent serves the traffic with no training
		// beside it, which measures per-request bookkeeping and the
		// server lock uncontended.
		Name: "finetune",
		Train: trainSpec{Model: finetuneModel(), Stages: 2, Lanes: 2, Samples: 256, Heldout: 256,
			Batch: 16, CachedEpochs: 3, SeqLen: 32, LR: 0.001, AccuracyFloor: 0.55},
		Serve:      traffic,
		Rounds:     5,
		TrainShare: 0.6, OpenShare: 0.3, ClosedShare: 0.1,
	},
	{
		// The agent serving while it fine-tunes: cached epochs on a
		// 2-worker group push adapters into the live classifier server
		// after every epoch. The framework they train on runs its phase 1
		// during set-up; each round first repeats phase 1 on a fresh one.
		// Short rounds spread the phase-1 and serving samples over the
		// run: on a shared 2-vCPU host a fixed loop's speed swings ±20%
		// between 2 s windows.
		Name: "serve_train",
		Train: trainSpec{Model: smallClassifier(), Stages: 2, Lanes: 1, Samples: 256, Heldout: 512,
			Batch: 16, CachedEpochs: 3, EvalEpoch: 20, SeqLen: 32},
		Serve:      classifyTraffic,
		Rounds:     10,
		TrainShare: 0.25, OpenShare: 0.5, ClosedShare: 0.25,
		Concurrent: true,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
