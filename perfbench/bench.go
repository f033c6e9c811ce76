package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"pac/internal/loadgen"
	"pac/internal/memledger"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/serve"
	"pac/internal/tensor"
)

// checks collects the run's correctness checks; a failed check counts
// as a failed operation.
type checks struct {
	run    int
	failed []string
}

func (c *checks) expect(name string, ok bool, format string, args ...interface{}) {
	c.run++
	if !ok {
		c.failed = append(c.failed, name+": "+fmt.Sprintf(format, args...))
	}
}

// outcome is everything one run measured, before it is reduced to
// metrics.
type outcome struct {
	w     workload
	seed  int64
	setup []float64 // seconds per set-up
	// newSec times core.New for the repetitions the set-up's framework
	// does not serve: finetune's after the first, every phase-1
	// repetition of a concurrent workload.
	newSec []float64
	// cycles are the fine-tuning repetitions; for a concurrent workload
	// they are the rounds' phase 1 and Redistribute repetitions.
	cycles  []stageTimes
	trainer *trainer
	// phase1Loss is a concurrent workload's set-up phase-1 loss, and
	// phase1Epochs counts every phase-1 epoch of the run, set-up ones
	// included, as the health sink sees them.
	phase1Loss   float64
	phase1Epochs int

	recomputed, cacheBytes int64

	open                   []reqResult
	closedSent, closedOK   int64
	capacity               []float64 // closed-loop req/s per round
	redistributedBytes     int64
	pool0, pool1           tensor.PoolStats
	mem0, mem1             runtime.MemStats
	trainSamples, requests int64

	// ops counts operations (fine-tuning cycles or epochs, requests);
	// failedOps those that failed. Checks add to both via totals.
	ops, failedOps int64
	ck             checks
	ledger         memledger.Snapshot
	rssBytes       int64
}

// runWorkload executes one run of w: set-up (timed, repeated), then the
// measured phases for seconds, then the checks. pr is nil when untraced.
func runWorkload(w workload, seed int64, seconds float64, pr *probes) (*outcome, error) {
	ctx := context.Background()
	o := &outcome{w: w, seed: seed}
	// share converts a share of the run into one round's duration.
	share := func(f float64) time.Duration {
		return time.Duration(f * seconds / float64(w.Rounds) * float64(time.Second))
	}

	var j *job
	var ag *agent
	var cls *serve.Server
	for i := 0; i < setups; i++ {
		runtime.GC()
		end := pr.phase(true, "setup")
		t0 := time.Now()
		train, eval := corpus(w.Train, seed)
		j, _ = newJob(w.Train, seed, train, eval, pr)
		if w.Concurrent {
			var st stageTimes
			if err := j.phase1(ctx, pr, &st); err != nil {
				end()
				return nil, err
			}
			o.phase1Epochs++
			o.phase1Loss = st.losses[0]
			cfg := w.Train.Model
			cls = serve.NewServer(peft.NewParallel(model.New(cfg), peft.Options{}), cfg)
		}
		var err error
		ag, err = newAgent(ctx, w.Serve, cls, seed)
		o.setup = append(o.setup, time.Since(t0).Seconds())
		end()
		if err != nil {
			return nil, err
		}
	}

	runtime.GC()
	o.pool0 = tensor.ReadPoolStats()
	runtime.ReadMemStats(&o.mem0)
	if w.Concurrent {
		o.serveTrain(ctx, j, ag, cls, share, pr)
	} else {
		o.sequential(ctx, j, ag, share, pr)
	}
	runtime.ReadMemStats(&o.mem1)
	o.pool1 = tensor.ReadPoolStats()
	o.redistributedBytes = j.f.RedistributedBytes

	o.checkServing()
	o.ledger = memledger.Default().Snapshot()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	o.rssBytes = ru.Maxrss * 1024 // Linux reports KiB
	return o, nil
}

// serveSlice runs one round's open-loop and closed-loop slices.
func (o *outcome) serveSlice(ctx context.Context, ag *agent, round int, share func(float64) time.Duration, pr *probes) {
	w := o.w
	end := pr.phase(false, "open_loop")
	o.open = append(o.open, ag.openLoop(ctx, round, o.seed*1000+int64(round), share(w.OpenShare), pr)...)
	end()
	end = pr.phase(false, "closed_loop")
	sent, ok, elapsed := ag.closedLoop(ctx, share(w.ClosedShare), pr)
	end()
	o.closedSent += sent
	o.closedOK += ok
	o.capacity = append(o.capacity, float64(ok)/elapsed.Seconds())
}

// sequential alternates, Rounds times, fine-tuning repetitions (each a
// full PAC cycle on a fresh framework, at least one per round, another
// only while it fits the round's training share) with a serving slice,
// so every metric samples the whole run rather than one stretch of it.
// Only the first repetition is evaluated on the held-out set: the
// others must end on the bit-identical final loss, so they hold the
// same adapters.
func (o *outcome) sequential(ctx context.Context, j *job, ag *agent, share func(float64) time.Duration, pr *probes) {
	w := o.w
	var last time.Duration
	for round := 0; round < w.Rounds; round++ {
		roundEnd := time.Now().Add(share(w.TrainShare))
		for rep := 0; rep == 0 || time.Now().Add(last).Before(roundEnd); rep++ {
			if len(o.cycles) > 0 || o.failedOps > 0 {
				runtime.GC()
				var sec float64
				j, sec = newJob(w.Train, o.seed, j.train, j.eval, pr)
				o.newSec = append(o.newSec, sec)
			}
			o.ops++
			t0 := time.Now()
			st, err := j.fullCycle(ctx, pr, len(o.cycles) == 0)
			last = time.Since(t0)
			if err != nil {
				o.failedOps++
				o.ck.expect("fine-tuning completes", false, "%v", err)
				continue
			}
			o.phase1Epochs++
			j.checkJob(&o.ck, st)
			o.recomputed += j.f.Recomputed()
			o.cacheBytes = j.f.Cache().Bytes()
			o.cycles = append(o.cycles, st)
			o.trainSamples += int64(w.Train.Samples * (1 + w.Train.CachedEpochs))
		}
		runtime.GC()
		o.serveSlice(ctx, ag, round, share, pr)
	}
	if len(o.cycles) > 1 {
		same := true
		for _, c := range o.cycles[1:] {
			same = same && c.finalLoss == o.cycles[0].finalLoss
		}
		o.ck.expect("final loss repeats bit-identically", same, "final losses differ across repetitions")
	}
}

// serveTrain runs Rounds rounds, each phase-1 repetitions on fresh
// frameworks with nothing beside them, then open- and closed-loop
// slices while cached epochs on the set-up's framework run beside them
// and push adapters into the live classifier server. Repeating phase 1
// in every round, rather than timing only the set-ups', spreads its
// samples over the run as the serving samples are.
func (o *outcome) serveTrain(ctx context.Context, j *job, ag *agent, cls *serve.Server, share func(float64) time.Duration, pr *probes) {
	w := o.w
	tr := &trainer{evalEpoch: w.Train.EvalEpoch}
	o.trainer = tr
	for round := 0; round < w.Rounds && tr.err == nil; round++ {
		o.phase1Reps(ctx, j, share(w.TrainShare), pr)
		runtime.GC()
		stop := make(chan struct{})
		done := make(chan struct{})
		endTrain := pr.phase(true, "serve_train")
		atLeast := 0
		if round == w.Rounds-1 {
			atLeast = w.Train.EvalEpoch
		}
		go func() {
			defer close(done)
			tr.run(ctx, j, cls, pr, stop, atLeast)
		}()
		o.serveSlice(ctx, ag, round, share, pr)
		close(stop)
		<-done
		endTrain()
	}

	o.ops += int64(len(tr.epochSec))
	o.trainSamples = int64(w.Train.Samples * (len(tr.epochSec) + len(o.cycles)))
	if tr.err != nil {
		o.failedOps++
		o.ck.expect("cached epochs complete", false, "%v", tr.err)
		return
	}
	losses := append([]float64{o.phase1Loss}, tr.losses...)
	j.checkJob(&o.ck, stageTimes{losses: losses, accuracy: tr.accuracy})
	same := true
	for _, c := range o.cycles {
		same = same && c.losses[0] == o.phase1Loss
	}
	o.ck.expect("phase-1 loss repeats bit-identically", same, "phase-1 losses differ across repetitions")
	o.recomputed = j.f.Recomputed()
	o.cacheBytes = j.f.Cache().Bytes()
	final := cls.SnapshotWeights()
	same = len(final) == len(tr.lastPush)
	for i := 0; same && i < len(final); i++ {
		same = math.Float32bits(final[i]) == math.Float32bits(tr.lastPush[i])
	}
	o.ck.expect("served weights equal the last push", same, "server weights differ from the last pushed adapters")
}

// phase1Reps repeats phase 1 and Redistribute, each time on a fresh
// framework over j's data, at least once and then while another fits
// the window.
func (o *outcome) phase1Reps(ctx context.Context, j *job, window time.Duration, pr *probes) {
	end := time.Now().Add(window)
	var last time.Duration
	for rep := 0; rep == 0 || time.Now().Add(last).Before(end); rep++ {
		runtime.GC()
		rj, sec := newJob(j.ts, o.seed, j.train, j.eval, pr)
		o.newSec = append(o.newSec, sec)
		o.ops++
		var st stageTimes
		t0 := time.Now()
		err := rj.phase1(ctx, pr, &st)
		last = time.Since(t0)
		if err != nil {
			o.failedOps++
			o.ck.expect("phase 1 completes", false, "%v", err)
			continue
		}
		o.phase1Epochs++
		o.cycles = append(o.cycles, st)
	}
}

// checkServing counts every request as an operation and every wrong or
// failed answer as a failed one.
func (o *outcome) checkServing() {
	var bad int64
	for _, r := range o.open {
		if !r.ok {
			bad++
		}
	}
	o.requests = int64(len(o.open)) + o.closedSent
	bad += o.closedSent - o.closedOK
	o.ops += o.requests
	o.failedOps += bad
	o.ck.expect("every request answered correctly", bad == 0, "%d of %d requests failed or differ from the reference", bad, o.requests)
}

// totals returns operations attempted and failed, each check counting
// as one operation.
func (o *outcome) totals() (attempted, failed int64) {
	return o.ops + int64(o.ck.run), o.failedOps + int64(len(o.ck.failed))
}

// opCounts returns sent and ok counts of one op over both loops.
func (o *outcome) opCounts(op loadgen.Op) (sent, ok int64) {
	for _, r := range o.open {
		if r.op == op {
			sent++
			if r.ok {
				ok++
			}
		}
	}
	if op == loadgen.OpClassify {
		sent += o.closedSent
		ok += o.closedOK
	}
	return sent, ok
}

// ---- statistics ----

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the exact linear-interpolation quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// latencies returns one field of the open-loop results of an op, in ms.
func (o *outcome) latencies(op loadgen.Op, field func(reqResult) time.Duration) []float64 {
	var out []float64
	for _, r := range o.open {
		if r.op == op {
			out = append(out, float64(field(r))/1e6)
		}
	}
	return out
}

// roundMedians returns, per round, the median of one field of the
// open-loop results of an op, in ms.
func (o *outcome) roundMedians(op loadgen.Op, field func(reqResult) time.Duration) []float64 {
	by := make([][]float64, o.w.Rounds)
	for _, r := range o.open {
		if r.op == op {
			by[r.round] = append(by[r.round], float64(field(r))/1e6)
		}
	}
	out := make([]float64, 0, len(by))
	for _, v := range by {
		if len(v) > 0 {
			out = append(out, median(v))
		}
	}
	return out
}

func latency(r reqResult) time.Duration  { return r.latency }
func service(r reqResult) time.Duration  { return r.service }
func queueing(r reqResult) time.Duration { return r.latency - r.service }
func lateness(r reqResult) time.Duration { return r.late }
