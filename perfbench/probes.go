package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pac/internal/acache"
	"pac/internal/health"
	"pac/internal/parallel"
	"pac/internal/telemetry"
)

// probes is the traced run's instrumentation. It is installed only
// through hooks the program already exposes — an acache.Store passed as
// core.Config.Cache, parallel.Transport wrappers passed as
// core.Config.WrapTransport, a health.Sink passed as core.Config.Health
// — plus timing around each serve.Server call. Every decorated call
// records a span in memory, parented under the phase or request span
// the benchmark opened; nothing is written until the run ends.
//
// A nil *probes is the untraced run: every method is a no-op.
type probes struct {
	t0      time.Time
	traceID uint64
	nextID  atomic.Uint64
	// trainPhase and servePhase hold the span id of the phase currently
	// open on each side; decorated calls parent under them.
	trainPhase, servePhase atomic.Uint64

	mu    sync.Mutex
	spans []span

	commMu sync.Mutex
	comm   map[commKey]*commAcc

	store  storeAcc
	health *healthAcc
}

type span struct {
	cat, name  string
	id, parent uint64
	start, end time.Duration // since t0
	pid, tid   int
}

// Trace process ids of the span dump.
const (
	pidTrain = 1
	pidServe = 2
)

func newProbes(seed int64) *probes {
	return &probes{t0: time.Now(), traceID: uint64(seed)*0x9E3779B97F4A7C15 | 1,
		comm: map[commKey]*commAcc{}, health: &healthAcc{pp: map[[2]int]*[2]float64{}}}
}

func (p *probes) id() uint64 { return p.nextID.Add(1) }

// record appends one finished span.
func (p *probes) record(cat, name string, id, parent uint64, pid, tid int, start, end time.Time) {
	s := span{cat: cat, name: name, id: id, parent: parent, pid: pid, tid: tid,
		start: start.Sub(p.t0), end: end.Sub(p.t0)}
	p.mu.Lock()
	p.spans = append(p.spans, s)
	p.mu.Unlock()
}

// phase opens a phase span on the training (train=true) or serving
// side, nested under the side's open phase, and makes it the parent of
// that side's decorated calls until the returned function ends it.
func (p *probes) phase(train bool, name string) func() {
	if p == nil {
		return func() {}
	}
	slot, pid := &p.servePhase, pidServe
	if train {
		slot, pid = &p.trainPhase, pidTrain
	}
	id, start := p.id(), time.Now()
	parent := slot.Swap(id)
	return func() {
		slot.Store(parent)
		p.record("core", name, id, parent, pid, 0, start, time.Now())
	}
}

// request records one serving request: its span runs from the due time
// to completion, with the server call as its child.
func (p *probes) request(op string, due, callStart, end time.Time) {
	if p == nil {
		return
	}
	id := p.id()
	p.record("client", "request", id, p.servePhase.Load(), pidServe, 1, due, end)
	cat := "serve"
	if op == "generate" {
		cat = "generate"
	}
	p.record(cat, op, p.id(), id, pidServe, 1, callStart, end)
}

// ---- parallel: timing Transport decorator ----

type commKey struct {
	kind        string
	index, rank int
}

// commAcc accumulates one endpoint's traffic across every fabric
// rebuild (the cached phase builds a new DP group per call).
type commAcc struct {
	sends, sendBytes, sendNs, recvNs atomic.Int64
}

func (p *probes) acc(k commKey) *commAcc {
	p.commMu.Lock()
	defer p.commMu.Unlock()
	a := p.comm[k]
	if a == nil {
		a = &commAcc{}
		p.comm[k] = a
	}
	return a
}

// wrapTransport is the core.Config.WrapTransport hook.
func (p *probes) wrapTransport(id parallel.FabricID, eps []parallel.Transport) []parallel.Transport {
	out := make([]parallel.Transport, len(eps))
	for r, ep := range eps {
		out[r] = &timedTransport{inner: ep, p: p, kind: id.Kind,
			acc: p.acc(commKey{kind: id.Kind, index: id.Index, rank: r})}
	}
	return out
}

// timedTransport times every call into the wrapped endpoint and passes
// payloads through untouched.
type timedTransport struct {
	inner parallel.Transport
	p     *probes
	kind  string
	acc   *commAcc
}

func (t *timedTransport) Rank() int { return t.inner.Rank() }
func (t *timedTransport) Size() int { return t.inner.Size() }

func (t *timedTransport) sent(start time.Time, n int) {
	end := time.Now()
	t.acc.sends.Add(1)
	t.acc.sendBytes.Add(int64(n))
	t.acc.sendNs.Add(int64(end.Sub(start)))
	t.p.record("parallel", t.kind+".send", t.p.id(), t.p.trainPhase.Load(), pidTrain, 2, start, end)
}

func (t *timedTransport) received(start time.Time) {
	end := time.Now()
	t.acc.recvNs.Add(int64(end.Sub(start)))
	t.p.record("parallel", t.kind+".recv", t.p.id(), t.p.trainPhase.Load(), pidTrain, 2, start, end)
}

func (t *timedTransport) SendCtx(ctx context.Context, to int, tag string, payload []byte) error {
	start := time.Now()
	err := t.inner.SendCtx(ctx, to, tag, payload)
	if err == nil {
		t.sent(start, len(payload))
	}
	return err
}

func (t *timedTransport) RecvCtx(ctx context.Context, from int, tag string) ([]byte, error) {
	start := time.Now()
	b, err := t.inner.RecvCtx(ctx, from, tag)
	t.received(start)
	return b, err
}

func (t *timedTransport) Send(to int, tag string, payload []float32) {
	start := time.Now()
	t.inner.Send(to, tag, payload)
	t.sent(start, 4*len(payload))
}

func (t *timedTransport) Recv(from int, tag string) []float32 {
	start := time.Now()
	v := t.inner.Recv(from, tag)
	t.received(start)
	return v
}

func (t *timedTransport) SendBytes(to int, tag string, payload []byte) {
	start := time.Now()
	t.inner.SendBytes(to, tag, payload)
	t.sent(start, len(payload))
}

func (t *timedTransport) RecvBytes(from int, tag string) []byte {
	start := time.Now()
	b := t.inner.RecvBytes(from, tag)
	t.received(start)
	return b
}

// commTotals sums one fabric kind over all its endpoints.
func (p *probes) commTotals(kind string) (calls, bytes int64, sendS, recvS float64) {
	p.commMu.Lock()
	defer p.commMu.Unlock()
	for k, a := range p.comm {
		if k.kind != kind {
			continue
		}
		calls += a.sends.Load()
		bytes += a.sendBytes.Load()
		sendS += time.Duration(a.sendNs.Load()).Seconds()
		recvS += time.Duration(a.recvNs.Load()).Seconds()
	}
	return
}

// ---- acache: timing Store decorator ----

type storeAcc struct {
	puts, putNs, gets, getNs, hits atomic.Int64
}

// timedStore times Put and Get on the wrapped store; every other
// method passes straight through.
type timedStore struct {
	acache.Store
	p *probes
}

func (p *probes) wrapStore(s acache.Store) acache.Store { return &timedStore{Store: s, p: p} }

func (s *timedStore) Put(id int, taps acache.Entry) error {
	start := time.Now()
	err := s.Store.Put(id, taps)
	end := time.Now()
	s.p.store.puts.Add(1)
	s.p.store.putNs.Add(int64(end.Sub(start)))
	s.p.record("acache", "put", s.p.id(), s.p.trainPhase.Load(), pidTrain, 3, start, end)
	return err
}

func (s *timedStore) Get(id int) (acache.Entry, bool) {
	start := time.Now()
	e, ok := s.Store.Get(id)
	end := time.Now()
	s.p.store.gets.Add(1)
	s.p.store.getNs.Add(int64(end.Sub(start)))
	if ok {
		s.p.store.hits.Add(1)
	}
	s.p.record("acache", "get", s.p.id(), s.p.trainPhase.Load(), pidTrain, 3, start, end)
	return e, ok
}

// ---- engine compute: health.Sink ----

// healthAcc sums the engines' compute reports: per (lane, stage)
// forward/backward seconds in phase 1, per-rank compute seconds in the
// cached phase (the DP engine reports forward and backward as one
// number).
type healthAcc struct {
	mu        sync.Mutex
	pp        map[[2]int]*[2]float64
	dpCompute float64
}

func (h *healthAcc) ReportStep(s health.StepStats) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case s.Engine == "pp":
		v := h.pp[[2]int{s.Lane, s.Stage}]
		if v == nil {
			v = &[2]float64{}
			h.pp[[2]int{s.Lane, s.Stage}] = v
		}
		v[0] += s.FwdSec
		v[1] += s.BwdSec
	case s.Engine == "dp" && s.Rank >= 0:
		h.dpCompute += s.FwdSec + s.BwdSec
	}
}

// device is one phase-1 goroutine device's accumulated time.
type device struct {
	fwd, bwd, pipeSend, pipeRecv, crossSend, crossRecv float64
}

// devices snapshots every phase-1 device: lane l's pipeline fabric has
// ranks = stages, stage s's cross-lane fabric has ranks = lanes.
func (p *probes) devices() map[[2]int]device {
	out := map[[2]int]device{}
	p.health.mu.Lock()
	for k, v := range p.health.pp {
		d := out[k]
		d.fwd, d.bwd = v[0], v[1]
		out[k] = d
	}
	p.health.mu.Unlock()
	p.commMu.Lock()
	for k, a := range p.comm {
		send := time.Duration(a.sendNs.Load()).Seconds()
		recv := time.Duration(a.recvNs.Load()).Seconds()
		switch k.kind {
		case "pipe":
			d := out[[2]int{k.index, k.rank}]
			d.pipeSend, d.pipeRecv = send, recv
			out[[2]int{k.index, k.rank}] = d
		case "cross":
			d := out[[2]int{k.rank, k.index}]
			d.crossSend, d.crossRecv = send, recv
			out[[2]int{k.rank, k.index}] = d
		}
	}
	p.commMu.Unlock()
	return out
}

// partsResidual compares each device's compute + send + receive-wait
// over one phase-1 epoch with the epoch's wall time. The stage compute
// reported to the health sink already contains the pipeline sends and
// receive-waits made inside forward and backward, so compute is that
// minus the pipe time, and the parts sum to fwd + bwd + cross-lane
// time. Returns the largest |wall − parts| / wall over devices.
func partsResidual(before, after map[[2]int]device, wall float64) float64 {
	worst := 0.0
	for k, a := range after {
		b := before[k]
		compute := (a.fwd - b.fwd) + (a.bwd - b.bwd) - (a.pipeSend - b.pipeSend) - (a.pipeRecv - b.pipeRecv)
		comm := (a.pipeSend - b.pipeSend) + (a.pipeRecv - b.pipeRecv) +
			(a.crossSend - b.crossSend) + (a.crossRecv - b.crossRecv)
		r := (wall - compute - comm) / wall
		if r < 0 {
			r = -r
		}
		if r > worst {
			worst = r
		}
	}
	return worst
}

// ---- span analysis and export ----

// selfSeconds returns each category's self time: every span's duration
// minus the part of it its child spans cover.
func (p *probes) selfSeconds() map[string]float64 {
	p.mu.Lock()
	spans := append([]span(nil), p.spans...)
	p.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		self := s.end - s.start - covered(s, children[s.id])
		out[s.cat] += self.Seconds()
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := k.start, k.end
		if a < parent.start {
			a = parent.start
		}
		if b > parent.end {
			b = parent.end
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// chrome renders the spans as Chrome trace events with trace/span/
// parent ids, the schema pac-trace -check validates.
func (p *probes) chrome() []telemetry.ChromeEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	evs := []telemetry.ChromeEvent{
		{Name: "process_name", Ph: "M", Pid: pidTrain, Args: map[string]interface{}{"name": "fine-tuning"}},
		{Name: "process_name", Ph: "M", Pid: pidServe, Args: map[string]interface{}{"name": "serving"}},
	}
	for _, s := range p.spans {
		args := map[string]interface{}{
			"trace": fmt.Sprintf("%016x", p.traceID),
			"span":  fmt.Sprintf("%016x", s.id),
		}
		if s.parent != 0 {
			args["parent"] = fmt.Sprintf("%016x", s.parent)
		}
		evs = append(evs, telemetry.ChromeEvent{Name: s.name, Cat: s.cat, Ph: "X",
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: s.pid, Tid: s.tid, Args: args})
	}
	return evs
}

func (p *probes) spanCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.spans)
}
