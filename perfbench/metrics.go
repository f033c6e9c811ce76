package main

import (
	"fmt"
	"math"

	"pac/internal/costmodel"
	"pac/internal/data"
	"pac/internal/loadgen"
	"pac/internal/memledger"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/profiler"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics with their units, in
// BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"finetune_s", "s"},
	{"phase1_samples_per_s", "samples/s"},
	{"cached_samples_per_s", "samples/s"},
	{"eval_accuracy", "fraction"},
	{"peak_rss_bytes", "bytes"},
	{"serve_p50_ms", "ms"},
	{"serve_capacity_rps", "req/s"},
}

// endToEndMetrics reduces a run to the end-to-end metrics. Serving
// numbers are medians over rounds (of each round's median latency, of
// each round's capacity); fine-tuning numbers are medians over
// repetitions; for a concurrent workload over the rounds' phase-1
// repetitions and over epochs for the cached part, so its finetune_s
// is median phase 1 + median Redistribute + CachedEpochs median epochs.
func (o *outcome) endToEndMetrics() map[string]metric {
	ts := o.w.Train
	samples := float64(ts.Samples)
	var finetune, phase1, cached, acc []float64
	for _, c := range o.cycles {
		phase1 = append(phase1, samples/c.phase1)
		if !o.w.Concurrent {
			finetune = append(finetune, c.phase1+c.redistribute+c.cached)
			cached = append(cached, samples*float64(ts.CachedEpochs)/c.cached)
			if c.accuracy >= 0 {
				acc = append(acc, c.accuracy)
			}
		}
	}
	if tr := o.trainer; tr != nil {
		var p1, rd []float64
		for _, c := range o.cycles {
			p1 = append(p1, c.phase1)
			rd = append(rd, c.redistribute)
		}
		finetune = []float64{median(p1) + median(rd) + float64(ts.CachedEpochs)*median(tr.epochSec)}
		for _, s := range tr.epochSec {
			cached = append(cached, samples/s)
		}
		acc = []float64{tr.accuracy}
	}
	values := map[string]float64{
		"setup_s":              median(o.setup),
		"finetune_s":           median(finetune),
		"phase1_samples_per_s": median(phase1),
		"cached_samples_per_s": median(cached),
		"eval_accuracy":        median(acc),
		"peak_rss_bytes":       float64(o.rssBytes),
		"serve_p50_ms":         median(o.roundMedians(loadgen.OpClassify, latency)),
		"serve_capacity_rps":   median(o.capacity),
	}
	out := map[string]metric{}
	for _, m := range endToEnd {
		out[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return out
}

// perLayerMetrics reduces a traced run to the per-layer metrics.
// untraced holds the same workload's end-to-end metrics measured with
// tracing off, for the overhead rows.
func (o *outcome) perLayerMetrics(pr *probes, untraced map[string]metric) map[string]metric {
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }

	// core: the public methods, timed directly.
	var p1, rd, cached, loss []float64
	for _, c := range o.cycles {
		p1 = append(p1, c.phase1)
		rd = append(rd, c.redistribute)
		if !o.w.Concurrent {
			cached = append(cached, c.cached/float64(o.w.Train.CachedEpochs))
			loss = append(loss, c.finalLoss)
		}
	}
	if tr := o.trainer; tr != nil && len(tr.losses) > 0 {
		cached = tr.epochSec
		loss = tr.losses[len(tr.losses)-1:]
	}
	put("core.phase1_s", "s", median(p1))
	put("core.redistribute_s", "s", median(rd))
	put("core.redistributed_bytes", "bytes", float64(o.redistributedBytes))
	put("core.cached_epoch_s", "s", median(cached))
	put("core.new_s", "s", median(o.newSec))
	put("core.final_loss", "loss", median(loss))
	put("core.recomputed", "count", float64(o.recomputed))

	// parallel: the transport decorator, per fabric kind.
	for _, kind := range []string{"pipe", "cross", "dp"} {
		calls, bytes, send, recv := pr.commTotals(kind)
		put("parallel."+kind+".calls", "count", float64(calls))
		put("parallel."+kind+".bytes", "bytes", float64(bytes))
		put("parallel."+kind+".send_s", "s", send)
		put("parallel."+kind+".recv_wait_s", "s", recv)
	}
	devs := pr.devices()
	var busy, wait float64
	stageFwd, stageBwd, stageBusy := map[int]float64{}, map[int]float64{}, map[int]float64{}
	for k, d := range devs {
		busy += d.fwd + d.bwd
		wait += d.pipeRecv
		stageFwd[k[1]] += d.fwd
		stageBwd[k[1]] += d.bwd
		stageBusy[k[1]] += d.fwd + d.bwd - d.pipeRecv
	}
	put("parallel.pipe.idle_share", "fraction", ratio(wait, busy))
	put("pp.parts_residual_share", "fraction", o.worstParts())

	// acache: the store decorator.
	st := &pr.store
	put("acache.put_calls", "count", float64(st.puts.Load()))
	put("acache.put_s", "s", float64(st.putNs.Load())/1e9)
	put("acache.get_calls", "count", float64(st.gets.Load()))
	put("acache.get_s", "s", float64(st.getNs.Load())/1e9)
	put("acache.hit_ratio", "fraction", ratio(float64(st.hits.Load()), float64(st.gets.Load())))
	put("acache.bytes", "bytes", float64(o.cacheBytes))

	// Engine compute: the health sink.
	for s := 0; s < 2; s++ {
		put(fmt.Sprintf("pp.stage%d.fwd_s", s), "s", stageFwd[s])
		put(fmt.Sprintf("pp.stage%d.bwd_s", s), "s", stageBwd[s])
	}
	lo, hi := math.Inf(1), 0.0
	for _, b := range stageBusy {
		lo, hi = math.Min(lo, b), math.Max(hi, b)
	}
	put("pp.stage_imbalance", "ratio", ratio(hi, lo))
	pr.health.mu.Lock()
	put("dp.compute_s", "s", pr.health.dpCompute)
	pr.health.mu.Unlock()

	// tensor pool and Go runtime, per operation (training sample or request).
	ops := float64(o.trainSamples + o.requests)
	gets := float64((o.pool1.Hits + o.pool1.Misses) - (o.pool0.Hits + o.pool0.Misses))
	misses := float64(o.pool1.Misses - o.pool0.Misses)
	puts := float64(o.pool1.Puts - o.pool0.Puts)
	put("tensor.pool.gets", "1/op", gets/ops)
	put("tensor.pool.miss_ratio", "fraction", ratio(misses, gets))
	put("tensor.pool.unreturned", "1/op", (gets-puts)/ops)
	put("runtime.allocs_per_op", "1/op", float64(o.mem1.Mallocs-o.mem0.Mallocs)/ops)
	put("runtime.gc_cycles", "count", float64(o.mem1.NumGC-o.mem0.NumGC))
	put("runtime.gc_pause_s", "s", float64(o.mem1.PauseTotalNs-o.mem0.PauseTotalNs)/1e9)

	// memledger, read after the run.
	acct := map[string]memledger.AccountSnapshot{}
	for _, a := range o.ledger.Accounts {
		acct[a.Account] = a
	}
	for _, name := range []string{"pool.inuse", "autograd.tape"} {
		put("memledger."+name+".unreleased", "count", float64(acct[name].Reserves-acct[name].Releases))
	}
	for _, name := range []string{"acache", "serve.inflight", "parallel.frames"} {
		put("memledger."+name+".peak_bytes", "bytes", float64(acct[name].PeakBytes))
	}

	// serve and generate: the benchmark's timing around each call.
	put("serve.service_ms", "ms", median(o.latencies(loadgen.OpClassify, service)))
	put("serve.queue_ms", "ms", median(o.latencies(loadgen.OpClassify, queueing)))
	cl := o.latencies(loadgen.OpClassify, latency)
	put("serve.p90_ms", "ms", quantile(cl, 0.9))
	put("serve.p99_ms", "ms", quantile(cl, 0.99))
	put("serve.p99_samples", "count", float64(len(cl)))
	late := append(o.latencies(loadgen.OpClassify, lateness), o.latencies(loadgen.OpGenerate, lateness)...)
	put("serve.generator_late_ms", "ms", quantile(late, 0.99))
	var pushes []float64
	if tr := o.trainer; tr != nil {
		pushes = tr.pushSec
	}
	put("serve.update_weights_ms", "ms", 1e3*median(pushes))
	put("serve.pushes", "count", float64(len(pushes)))
	for _, op := range []loadgen.Op{loadgen.OpClassify, loadgen.OpGenerate} {
		sent, ok := o.opCounts(op)
		put("serve."+string(op)+".sent", "count", float64(sent))
		put("serve."+string(op)+".ok", "count", float64(ok))
		put("serve."+string(op)+".failed", "count", float64(sent-ok))
	}
	put("generate.p50_ms", "ms", median(o.latencies(loadgen.OpGenerate, latency)))
	put("generate.service_ms", "ms", median(o.latencies(loadgen.OpGenerate, service)))

	// Self time per layer, from the spans.
	self := pr.selfSeconds()
	for _, cat := range []string{"core", "parallel", "acache", "serve", "generate"} {
		put(cat+".self_s", "s", self[cat])
	}
	put("trace.spans", "count", float64(pr.spanCount()))

	// Predicted beside measured for the phase-1 forward.
	pred, gflops := o.predicted(stageFwd)
	put("profiler.phase1_pred_ratio", "ratio", pred)
	put("costmodel.fwd_gflops", "GFLOP/s", gflops)

	traced := o.endToEndMetrics()
	for _, m := range endToEnd {
		put("overhead."+m.name, m.unit, traced[m.name].Value-untraced[m.name].Value)
	}
	for name, m := range out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	return out
}

// predicted profiles the workload's model on one training batch and
// compares it with the phase-1 stage forward time the health sink
// measured: the ratio of measured to profiled forward seconds per
// sample, and the analytic forward FLOPs over the measured seconds.
func (o *outcome) predicted(stageFwd map[int]float64) (predRatio, gflops float64) {
	ts := o.w.Train
	var fwd float64
	for _, v := range stageFwd {
		fwd += v
	}
	phase1Samples := float64(ts.Samples * o.phase1Epochs)
	if fwd == 0 || phase1Samples == 0 {
		return 0, 0
	}
	train, _ := corpus(ts, o.seed)
	batch := data.NewLoader(train, ts.Batch, o.seed).Epoch(0)[0]
	m := model.New(ts.Model)
	prof := profiler.Measure(m, peft.NewParallel(m, peft.Options{}), batch, 3)
	perSample := fwd / phase1Samples
	costs := costmodel.Costs{Cfg: ts.Model, Kind: peft.ParallelAdapters, EncSeq: ts.SeqLen, DecSeq: 1}
	flops := costmodel.Totals(costs.Blocks()).FwdFLOPs * phase1Samples
	return perSample / (prof.FwdSec / float64(prof.Batch)), flops / fwd / 1e9
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// worstParts is the largest phase-1 device residual over the run's
// phase-1 epochs (see partsResidual).
func (o *outcome) worstParts() float64 {
	m := 0.0
	for _, c := range o.cycles {
		m = math.Max(m, c.partsResidual)
	}
	return m
}
