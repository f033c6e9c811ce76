package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pac/internal/generate"
	"pac/internal/loadgen"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/serve"
)

// payload is one request body with the output the server must return.
type payload struct {
	user   int
	tokens []int
	maxLen int
	want   []int // classify: the class; generate: the greedy tokens
}

// agent is the serving side of a run: an LM-configured model.Small
// server answering classify and generate, or — when a classifier is
// being fine-tuned beside it — classify on that classifier's server.
type agent struct {
	lm  *serve.Server // nil when a classifier takes every request
	cls *serve.Server // the live fine-tuned classifier; nil when classify goes to lm
	// classify and gens are the fixed payload pools the streams draw
	// from; references are serial passes computed here, at set-up.
	classify []payload
	gens     []payload
	ss       serveSpec
}

// newAgent builds the servers and the payload pools. Payloads come from
// loadgen.Synthesize under the run's seed. With a classifier server the
// classify outputs change as adapters are pushed, so only generate
// outputs get a reference.
func newAgent(ctx context.Context, ss serveSpec, cls *serve.Server, seed int64) (*agent, error) {
	cfg := smallLM()
	a := &agent{ss: ss, cls: cls}
	if cls == nil || ss.GenFrac > 0 {
		a.lm = serve.NewServer(peft.NewParallel(model.New(cfg), peft.Options{}), cfg)
	}
	pool := func(genFrac float64, n int, salt int64) []payload {
		tr := loadgen.Synthesize(loadgen.SynthConfig{Seed: seed*7919 + salt, Users: ss.Users, Zipf: ss.Zipf,
			QPS: 1000, GenFrac: genFrac, Duration: time.Duration(n) * 10 * time.Millisecond,
			SeqLen: ss.SeqLen, Vocab: cfg.Vocab, MaxLen: ss.MaxLen})
		out := make([]payload, 0, n)
		for _, r := range tr.Requests[:n] {
			out = append(out, payload{user: r.User, tokens: r.Tokens[:r.Len], maxLen: ss.MaxLen})
		}
		return out
	}
	a.classify = pool(0, ss.Pool, 1)
	if ss.GenFrac > 0 {
		a.gens = pool(1, ss.GenPool, 2)
	}
	for i := range a.gens {
		p := &a.gens[i]
		out, err := a.lm.GenerateFor(ctx, p.user, [][]int{p.tokens}, []int{len(p.tokens)},
			generate.Options{MaxLen: p.maxLen})
		if err != nil {
			return nil, fmt.Errorf("generate reference: %w", err)
		}
		p.want = out[0]
	}
	if cls == nil {
		for i := range a.classify {
			p := &a.classify[i]
			out, err := a.lm.ClassifyFor(ctx, p.user, [][]int{p.tokens}, []int{len(p.tokens)})
			if err != nil {
				return nil, fmt.Errorf("classify reference: %w", err)
			}
			p.want = out
		}
	}
	return a, nil
}

// validClass reports whether c is a class the live classifier can return.
func (a *agent) validClass(c int) bool {
	return c >= 0 && c < smallClassifier().NumClasses
}

// do issues one request and reports whether it succeeded with the right
// output.
func (a *agent) do(ctx context.Context, op loadgen.Op, p *payload) bool {
	if op == loadgen.OpGenerate {
		out, err := a.lm.GenerateFor(ctx, p.user, [][]int{p.tokens}, []int{len(p.tokens)},
			generate.Options{MaxLen: p.maxLen})
		return err == nil && len(out) == 1 && equalInts(out[0], p.want)
	}
	if a.cls != nil {
		out, err := a.cls.ClassifyFor(ctx, p.user, [][]int{p.tokens}, []int{len(p.tokens)})
		return err == nil && len(out) == 1 && a.validClass(out[0])
	}
	out, err := a.lm.ClassifyFor(ctx, p.user, [][]int{p.tokens}, []int{len(p.tokens)})
	return err == nil && equalInts(out, p.want)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reqResult is one open-loop request. Latency runs from the request's
// due time, so a stall shows up on every request queued behind it.
type reqResult struct {
	round            int
	op               loadgen.Op
	latency, service time.Duration
	late             time.Duration // how late the generator dispatched it
	ok               bool
}

// openLoop replays a Poisson arrival schedule synthesized by loadgen for
// the window, one goroutine per request, each timed from its due time.
func (a *agent) openLoop(ctx context.Context, round int, seed int64, window time.Duration, pr *probes) []reqResult {
	ss := a.ss
	// The trace supplies arrival times and ops; bodies come from the
	// pools so every output has a reference.
	tr := loadgen.Synthesize(loadgen.SynthConfig{Seed: seed, Users: ss.Users, Zipf: ss.Zipf,
		QPS: ss.QPS, GenFrac: ss.GenFrac, Duration: window, SeqLen: ss.SeqLen, MaxLen: ss.MaxLen})
	res := make([]reqResult, len(tr.Requests))
	var wg sync.WaitGroup
	start := time.Now()
	gens := 0
	for i := range tr.Requests {
		req := &tr.Requests[i]
		p := &a.classify[i%len(a.classify)]
		if req.Op == loadgen.OpGenerate {
			p = &a.gens[gens%len(a.gens)]
			gens++
		}
		due := start.Add(time.Duration(req.ArrivalUS) * time.Microsecond)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due)
		wg.Add(1)
		go func(r *reqResult, op loadgen.Op, p *payload, due time.Time) {
			defer wg.Done()
			t0 := time.Now()
			ok := a.do(ctx, op, p)
			end := time.Now()
			*r = reqResult{round: round, op: op, latency: end.Sub(due), service: end.Sub(t0), late: late, ok: ok}
			pr.request(string(op), due, t0, end)
		}(&res[i], req.Op, p, due)
	}
	wg.Wait()
	return res
}

// closedLoop runs GOMAXPROCS clients issuing classify back to back for
// the window and returns requests sent, succeeded and the elapsed time.
func (a *agent) closedLoop(ctx context.Context, window time.Duration, pr *probes) (sent, ok int64, elapsed time.Duration) {
	clients := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	counts := make([][2]int64, clients)
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := c; time.Now().Before(deadline); j += clients {
				p := &a.classify[j%len(a.classify)]
				t0 := time.Now()
				good := a.do(ctx, loadgen.OpClassify, p)
				pr.request("classify", t0, t0, time.Now())
				counts[c][0]++
				if good {
					counts[c][1]++
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, n := range counts {
		sent += n[0]
		ok += n[1]
	}
	return sent, ok, elapsed
}
