package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	"pac/internal/acache"
	"pac/internal/parallel"
	"pac/internal/tensor"
)

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: file %q, code %q", i, w.Name, workloads[i].Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, code %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: file %s [%s], code %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
}

// shortWorkload shrinks a workload to one round and one cached epoch,
// so a run takes seconds.
func shortWorkload(w workload) workload {
	w.Rounds = 1
	w.Train.CachedEpochs = 1
	w.Train.EvalEpoch = 1
	return w
}

// TestWorkloadsShort runs every workload briefly, untraced and traced,
// and asserts that every named metric is present with its unit and that
// every correctness check passes.
func TestWorkloadsShort(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if err := pin(); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := shortWorkload(w)
		t.Run(w.Name, func(t *testing.T) {
			o, err := runWorkload(w, 3, 1.5, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, failed := o.totals(); failed != 0 {
				t.Fatalf("%d failed operations: %v", failed, o.ck.failed)
			}
			e2e := o.endToEndMetrics()
			for _, m := range bf.EndToEnd {
				got, ok := e2e[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(e2e) != len(bf.EndToEnd) {
				t.Errorf("%d end-to-end metrics, BENCHMARK.json names %d", len(e2e), len(bf.EndToEnd))
			}

			pr := newProbes(3)
			to, err := runWorkload(w, 3, 1.5, pr)
			if err != nil {
				t.Fatal(err)
			}
			if _, failed := to.totals(); failed != 0 {
				t.Fatalf("traced: %d failed operations: %v", failed, to.ck.failed)
			}
			per := to.perLayerMetrics(pr, e2e)
			for _, m := range bf.PerLayer {
				got, ok := per[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(per) != len(bf.PerLayer) {
				t.Errorf("%d per-layer metrics, BENCHMARK.json names %d", len(per), len(bf.PerLayer))
			}
		})
	}
}

func TestTimedStorePassesEntriesThrough(t *testing.T) {
	inner := acache.NewMemoryStore()
	s := newProbes(1).wrapStore(inner)
	entry := acache.Entry{tensor.FromSlice([]float32{1.5, -2, 3.25}, 1, 3), tensor.FromSlice([]float32{7}, 1, 1)}
	if err := s.Put(4, entry); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(4)
	want, _ := inner.Get(4)
	if !ok || len(got) != len(want) {
		t.Fatalf("Get(4) = %v, %v", got, ok)
	}
	for i := range got {
		if !bytes.Equal(f32bytes(got[i].Data), f32bytes(want[i].Data)) || !bytes.Equal(f32bytes(got[i].Data), f32bytes(entry[i].Data)) {
			t.Errorf("tap %d: decorated %v, store %v, put %v", i, got[i].Data, want[i].Data, entry[i].Data)
		}
	}
	if !s.Has(4) || s.Len() != 1 || s.Bytes() != inner.Bytes() {
		t.Errorf("Has/Len/Bytes not forwarded: %v %d %d", s.Has(4), s.Len(), s.Bytes())
	}
	if _, ok := s.Get(5); ok {
		t.Error("Get(5) hit on an empty id")
	}
	p := s.(*timedStore).p
	if p.store.puts.Load() != 1 || p.store.gets.Load() != 2 || p.store.hits.Load() != 1 {
		t.Errorf("counts: puts %d gets %d hits %d", p.store.puts.Load(), p.store.gets.Load(), p.store.hits.Load())
	}
}

func TestTimedTransportPassesPayloadsThrough(t *testing.T) {
	p := newProbes(1)
	eps := p.wrapTransport(parallel.FabricID{Kind: "pipe", Index: 0}, parallel.NewChanNetwork(2).Endpoints())
	ctx := context.Background()
	payload := []byte{0, 1, 2, 254, 255, 9}
	if err := eps[0].SendCtx(ctx, 1, "f0", payload); err != nil {
		t.Fatal(err)
	}
	got, err := eps[1].RecvCtx(ctx, 0, "f0")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("RecvCtx = %v, %v; want %v", got, err, payload)
	}
	vals := []float32{1, -0.5, float32(math.Inf(1))}
	eps[1].Send(0, "b0", vals)
	back := eps[0].Recv(1, "b0")
	if !bytes.Equal(f32bytes(back), f32bytes(vals)) {
		t.Fatalf("Recv = %v, want %v", back, vals)
	}
	eps[0].SendBytes(1, "x", payload)
	if got := eps[1].RecvBytes(0, "x"); !bytes.Equal(got, payload) {
		t.Fatalf("RecvBytes = %v, want %v", got, payload)
	}
	if eps[0].Rank() != 0 || eps[1].Size() != 2 {
		t.Errorf("Rank/Size not forwarded")
	}
	calls, n, _, _ := p.commTotals("pipe")
	if calls != 3 || n != int64(2*len(payload)+4*len(vals)) {
		t.Errorf("pipe totals: %d calls, %d bytes", calls, n)
	}
}

func f32bytes(v []float32) []byte {
	out := make([]byte, 0, 4*len(v))
	for _, x := range v {
		b := math.Float32bits(x)
		out = append(out, byte(b), byte(b>>8), byte(b>>16), byte(b>>24))
	}
	return out
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	parent := span{start: 0, end: 100}
	kids := []span{{start: 10, end: 30}, {start: 20, end: 40}, {start: 60, end: 70}, {start: 90, end: 150}}
	if got := covered(parent, kids); got != 50 {
		t.Errorf("covered = %v, want 50", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := quantile(v, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(v, 0.9); math.Abs(got-3.7) > 1e-12 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
}
