package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"sync"
	"testing"
	"time"

	"chet/internal/ckks"
	"chet/internal/core"
	"chet/internal/hisa"
	"chet/internal/htc"
	"chet/internal/nn"
	"chet/internal/ring"
)

// testBackend is one backend the cross-cutting tests run against.
type testBackend struct {
	name       string
	b          hisa.Backend
	canDecrypt bool
}

// fourBackends returns the full backend matrix: the plaintext oracle, the
// CKKS mock, the real RNS-CKKS scheme with keys, and the eval-only RNS
// backend built from transferred public keys (serve's server side).
func fourBackends(t testing.TB) []testBackend {
	t.Helper()
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     10,
		LogQ:     []int{50, 40, 40, 40},
		LogP:     50,
		LogScale: 40,
	})
	if err != nil {
		t.Fatalf("NewParameters: %v", err)
	}
	rotations := []int{1, 2, 3, params.Slots() - 1}
	rns := hisa.NewRNSBackend(hisa.RNSConfig{
		Params: params,
		PRNG:   ring.NewTestPRNG(0xABCDEF),
		Keys:   hisa.FullChainKeys(params, rotations...),
	})
	evalOnly := hisa.NewRNSBackendFromKeys(params, rns.PublicKeys(), ring.NewTestPRNG(0xF00D))
	return []testBackend{
		{"ref", hisa.NewRefBackend(512), true},
		{"sim", hisa.NewSimBackend(hisa.SimParams{LogN: 10, LogQ: 240, Seed: 7, NoNoise: true}), true},
		{"rns", rns, true},
		{"rns-from-keys", evalOnly, false},
	}
}

const testScale = float64(1 << 40)

// driveOps executes a fixed HISA workload through b, covering every traced
// mnemonic plus the non-ops (whole-slot rotation, divisor-1 rescale,
// Copy/Free) that are never recorded.
func driveOps(b hisa.Backend, canDecrypt bool) {
	slots := b.Slots()
	v := make([]float64, slots)
	for i := range v {
		v[i] = 0.25 + float64(i%7)/16
	}
	p := b.Encode(v, testScale)
	c := b.Encrypt(p)
	c2 := b.Encrypt(p)

	b.Add(c, c2)
	b.AddPlain(c, p)
	b.AddScalar(c, 0.5)
	b.Sub(c, c2)
	b.SubPlain(c, p)
	b.SubScalar(c, 0.125)
	prod := b.Mul(c, c2)
	b.MulPlain(c, p)
	b.MulScalar(c, 1.5, testScale)

	b.RotLeft(c, 1)
	b.RotLeft(c, slots) // whole-slot: a non-op in both Meter and Tracer
	b.RotRight(c, 1)
	hisa.RotLeftMany(b, c, []int{1, 2, slots}) // slots amount is a non-op

	if d := b.MaxRescale(prod, new(big.Int).Lsh(big.NewInt(1), 41)); d.Cmp(big.NewInt(1)) > 0 {
		b.Rescale(prod, d)
	}
	b.Rescale(c, big.NewInt(1)) // divisor-1: a non-op in both

	b.Free(b.Copy(c)) // metadata-only, never counted
	if canDecrypt {
		b.Decode(b.Decrypt(c))
	}
}

// TestLevelsThroughWrapChain checks the level probe resolves through a Meter
// in the middle of the chain: Tracer(Meter(RNS)) must still record levels.
func TestLevelsThroughWrapChain(t *testing.T) {
	backs := fourBackends(t)
	rns := backs[2]
	tracer := NewTracer(hisa.NewMeter(rns.b, nil), Config{})
	driveOps(tracer, rns.canDecrypt)
	sawLevel := false
	for _, s := range tracer.Snapshot() {
		if s.Kind == KindOp && s.LevelIn >= 0 {
			sawLevel = true
			break
		}
	}
	if !sawLevel {
		t.Error("no span recorded a ciphertext level despite wrapping an RNS backend")
	}
}

// TestTracedExecutionBitExact runs LeNet-tiny's compiled circuit twice on
// the same encrypted input — bare backend and Tracer-wrapped — and requires
// bitwise-identical decrypted outputs on every backend. The tracer observes;
// it must never perturb.
func TestTracedExecutionBitExact(t *testing.T) {
	m := nn.LeNetTiny()
	comp, err := core.Compile(m.Circuit, core.Options{
		Scheme: core.SchemeRNS, SecurityBits: -1, MinLogN: 11, MaxLogN: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	rns, err := core.BuildBackend(comp, ring.NewTestPRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	backends := []testBackend{
		{"rns", rns, true},
		{"ref", hisa.NewRefBackend(rns.Slots()), true},
		// NoNoise: Sim decryption otherwise samples its noise estimate, which
		// would make even two untraced runs disagree.
		{"sim", hisa.NewSimBackend(hisa.SimParams{
			LogN: comp.Best.LogN, LogQ: int(comp.Best.LogQ), Seed: 5, NoNoise: true,
		}), true},
	}
	img := nn.SyntheticImage(m.InputShape, 23)
	sc := comp.Options.Scales
	policy := comp.Best.Policy
	plan := htc.PlanFor(m.Circuit, policy)
	for _, tb := range backends {
		t.Run(tb.name, func(t *testing.T) {
			enc := htc.EncryptTensor(tb.b, plan, sc, img)
			bare := htc.DecryptTensor(tb.b, comp.Execute(tb.b, enc, 1), 1)[0]
			tracer := NewTracer(tb.b, Config{})
			traced := htc.DecryptTensor(tb.b, comp.Execute(tracer, enc, 1), 1)[0]
			if len(bare.Data) != len(traced.Data) {
				t.Fatalf("output sizes differ: %d vs %d", len(bare.Data), len(traced.Data))
			}
			for i := range bare.Data {
				if bare.Data[i] != traced.Data[i] {
					t.Fatalf("element %d: bare %v, traced %v", i, bare.Data[i], traced.Data[i])
				}
			}
			if tracer.SpanCount() == 0 {
				t.Fatal("tracer recorded no spans")
			}
			// The executor opened one scope per non-input circuit node.
			scopes := 0
			for _, s := range tracer.Snapshot() {
				if s.Kind == KindScope {
					scopes++
				}
			}
			if want := len(m.Circuit.Nodes) - 1; scopes != want {
				t.Errorf("recorded %d scope spans, want %d (one per non-input node)", scopes, want)
			}
		})
	}
}

// TestQuantileInterpolation pins the linear-interpolation quantiles on a
// known ladder: 100ms..1000ms in steps of 100.
func TestQuantileInterpolation(t *testing.T) {
	sorted := make([]time.Duration, 10)
	for i := range sorted {
		sorted[i] = time.Duration(i+1) * 100 * time.Millisecond
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0.50, 550 * time.Millisecond},
		{0.90, 910 * time.Millisecond},
		{0.99, 991 * time.Millisecond},
		{0, 100 * time.Millisecond},
		{1, 1000 * time.Millisecond},
		{-1, 100 * time.Millisecond},
		{2, 1000 * time.Millisecond},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.p); got != c.want {
			t.Errorf("Quantile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(empty) = %v, want 0", got)
	}
	one := []time.Duration{42 * time.Millisecond}
	if got := Quantile(one, 0.99); got != 42*time.Millisecond {
		t.Errorf("Quantile(single, 0.99) = %v, want 42ms", got)
	}
}

// TestRingWrap exercises the bounded ring: over-capacity recording must
// retain the newest spans in order and count drops.
func TestRingWrap(t *testing.T) {
	b := hisa.NewRefBackend(8)
	tr := NewTracer(b, Config{Capacity: 16})
	p := b.Encode(make([]float64, 8), testScale)
	c := tr.Encrypt(p)
	for i := 0; i < 40; i++ {
		tr.Add(c, c)
	}
	spans := tr.Snapshot()
	if len(spans) != 16 {
		t.Fatalf("ring holds %d spans, want 16", len(spans))
	}
	if tr.Dropped() != 25 { // 41 recorded - 16 retained
		t.Errorf("Dropped = %d, want 25", tr.Dropped())
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("snapshot out of order at %d", i)
		}
	}
	if tr.SpanCount() != 41 {
		t.Errorf("SpanCount = %d, want 41 (totals survive ring wrap)", tr.SpanCount())
	}
}

// TestScopeUnwindAfterPanic checks a scope leaked by a recovered panic is
// discarded when its enclosing scope closes.
func TestScopeUnwindAfterPanic(t *testing.T) {
	b := hisa.NewRefBackend(8)
	tr := NewTracer(b, Config{})
	p := b.Encode(make([]float64, 8), testScale)
	c := tr.Encrypt(p)

	endOuter := tr.StartScope("outer")
	func() {
		defer func() { recover() }()
		_ = tr.StartScope("inner") // leaked: close never runs
		panic("kernel died")
	}()
	endOuter()
	tr.Add(c, c)

	spans := tr.Snapshot()
	last := spans[len(spans)-1]
	if last.Op != "add" || last.Scope != "" {
		t.Errorf("op after unwind recorded scope %q, want top level", last.Scope)
	}
}

// TestConcurrentTracing hammers one tracer from many goroutines while
// snapshots, profiles, and totals are read concurrently; run under -race
// (ci.sh gates it) this is the data-race check for the whole package.
func TestConcurrentTracing(t *testing.T) {
	b := hisa.NewRefBackend(64)
	tr := NewTracer(b, Config{Capacity: 256})
	p := b.Encode(make([]float64, 64), testScale)
	c := tr.Encrypt(p)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch (g + i) % 4 {
				case 0:
					tr.Add(c, c)
				case 1:
					tr.Mul(c, c)
				case 2:
					tr.RotLeft(c, 1)
				default:
					tr.MulScalar(c, 1.0, testScale)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			tr.Snapshot()
			tr.Totals()
			tr.Profile()
			tr.Dropped()
		}
	}()
	wg.Wait()
	<-done
	// 1600 driven ops + 1 encrypt, plus one relin span per Mul (each worker
	// hits the Mul arm 50 times per 200 iterations).
	if got := tr.SpanCount(); got != 8*200+1+8*50 {
		t.Errorf("SpanCount = %d, want %d", got, 8*200+1+8*50)
	}
}

// TestChromeTraceOutput validates the trace_event JSON end to end: every
// span becomes a complete event, categories split op/kernel, and otherData
// rides along.
func TestChromeTraceOutput(t *testing.T) {
	b := hisa.NewRefBackend(8)
	tr := NewTracer(b, Config{})
	p := b.Encode(make([]float64, 8), testScale)
	c := tr.Encrypt(p)
	end := tr.StartScope("conv2d:conv1")
	tr.Add(c, c)
	tr.RotLeft(c, 3)
	end()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Snapshot(), map[string]any{"wallUS": 123}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 4 { // encode + add + rotl + the scope
		t.Fatalf("got %d events, want 4:\n%s", len(doc.TraceEvents), buf.String())
	}
	cats := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event %q has phase %q, want complete (X)", e.Name, e.Ph)
		}
		if e.Ts < 0 || e.Dur < 0 {
			t.Errorf("event %q has negative ts/dur", e.Name)
		}
		cats[e.Cat]++
	}
	if cats["op"] != 3 || cats["kernel"] != 1 {
		t.Errorf("category split op=%d kernel=%d, want 3/1", cats["op"], cats["kernel"])
	}
	if fmt.Sprint(doc.OtherData["wallUS"]) != "123" {
		t.Errorf("otherData lost: %v", doc.OtherData)
	}
}

// TestProfileAttribution checks the per-op and per-scope rollups: totals
// partition by mnemonic and top-level scopes only feed ScopeTotal.
func TestProfileAttribution(t *testing.T) {
	b := hisa.NewRefBackend(8)
	tr := NewTracer(b, Config{})
	p := b.Encode(make([]float64, 8), testScale)
	c := tr.Encrypt(p)
	endOuter := tr.StartScope("infer")
	endInner := tr.StartScope("conv2d:c1")
	tr.Add(c, c)
	tr.Add(c, c)
	tr.Mul(c, c)
	endInner()
	endOuter()

	prof := tr.Profile()
	byOp := map[string]OpProfile{}
	for _, op := range prof.Ops {
		byOp[op.Op] = op
	}
	if byOp["add"].Count != 2 || byOp["mul"].Count != 1 || byOp["encrypt"].Count != 1 {
		t.Errorf("op counts wrong: %+v", prof.Ops)
	}
	if len(prof.Scopes) != 2 {
		t.Fatalf("got %d scopes, want 2", len(prof.Scopes))
	}
	var topTotal time.Duration
	for _, s := range prof.Scopes {
		if s.Scope == "infer" {
			topTotal = s.Total
		}
	}
	if prof.ScopeTotal != topTotal {
		t.Errorf("ScopeTotal %v should equal the top-level scope's total %v (nested scopes must not double-count)",
			prof.ScopeTotal, topTotal)
	}
}

// TestTraceContextPropagation pins the distributed-tracing contract: ops and
// manual spans recorded under a StartScopeCtx scope inherit its trace ID and
// are parented under the scope's span, nested scopes ride the same context,
// and FilterTrace slices a mixed ring down to one trace.
func TestTraceContextPropagation(t *testing.T) {
	b := hisa.NewRefBackend(8)
	tr := NewTracer(b, Config{})
	p := b.Encode(make([]float64, 8), testScale)
	c := tr.Encrypt(p) // before any scope: no trace context

	const traceID, parent = 0xDEAD, 0x1111
	end, scopeSpan := tr.StartScopeCtx("request", traceID, parent)
	if scopeSpan == 0 {
		t.Fatal("StartScopeCtx returned zero span ID")
	}
	tr.Add(c, c)
	inner := tr.StartScope("conv2d:conv1") // zero ctx: must inherit
	tr.Mul(c, c)
	inner()
	tr.RecordManual(KindOp, "queue-wait", time.Now(), time.Millisecond, 0, 0, 0)
	end()

	spans := tr.Snapshot()
	byOp := map[string]Span{}
	for _, s := range spans {
		byOp[s.Op] = s
	}
	if s := byOp["encrypt"]; s.TraceID != 0 {
		t.Errorf("pre-scope op carries trace ID %#x, want none", s.TraceID)
	}
	if s := byOp["add"]; s.TraceID != traceID || s.Parent != scopeSpan {
		t.Errorf("add span ctx = (%#x, parent %#x), want (%#x, %#x)", s.TraceID, s.Parent, traceID, scopeSpan)
	}
	innerScope := byOp["conv2d:conv1"]
	if innerScope.TraceID != traceID || innerScope.Parent != scopeSpan {
		t.Errorf("nested scope ctx = (%#x, parent %#x), want (%#x, %#x)",
			innerScope.TraceID, innerScope.Parent, traceID, scopeSpan)
	}
	if s := byOp["mul"]; s.TraceID != traceID || s.Parent != innerScope.SpanID {
		t.Errorf("mul span parent = %#x, want nested scope %#x", s.Parent, innerScope.SpanID)
	}
	if s := byOp["queue-wait"]; s.TraceID != traceID || s.Parent != scopeSpan {
		t.Errorf("manual span ctx = (%#x, parent %#x), want inherited (%#x, %#x)",
			s.TraceID, s.Parent, traceID, scopeSpan)
	}
	if s := byOp["request"]; s.TraceID != traceID || s.SpanID != scopeSpan || s.Parent != parent {
		t.Errorf("scope span = (%#x, %#x, parent %#x), want (%#x, %#x, %#x)",
			s.TraceID, s.SpanID, s.Parent, traceID, scopeSpan, parent)
	}

	got := FilterTrace(spans, traceID)
	for _, s := range got {
		if s.TraceID != traceID {
			t.Fatalf("FilterTrace leaked span %q from trace %#x", s.Op, s.TraceID)
		}
	}
	// encrypt (and the relin sub-span's context matches mul's) — everything
	// but the pre-scope encrypt belongs to the trace.
	if len(got) != len(spans)-1 {
		t.Errorf("FilterTrace kept %d of %d spans, want all but the pre-scope encrypt", len(got), len(spans))
	}
	if all := FilterTrace(spans, 0); len(all) != len(spans) {
		t.Errorf("FilterTrace(0) kept %d of %d spans, want all", len(all), len(spans))
	}
}

// TestNewSpanIDUnique checks concurrent span-ID allocation never collides —
// the IDs stitch cross-process traces, so a dup would merge unrelated spans.
func TestNewSpanIDUnique(t *testing.T) {
	const goroutines, per = 8, 1000
	ids := make(chan uint64, goroutines*per)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ids <- NewSpanID()
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := make(map[uint64]bool, goroutines*per)
	for id := range ids {
		if id == 0 {
			t.Fatal("NewSpanID returned 0 (reserved for absent)")
		}
		if seen[id] {
			t.Fatalf("duplicate span ID %#x", id)
		}
		seen[id] = true
	}
}

// TestSpanRingWrap exercises the standalone ring the router records into:
// over-capacity recording keeps the newest spans, counts drops, and
// snapshots in order.
func TestSpanRingWrap(t *testing.T) {
	r := NewSpanRing(4)
	base := r.Epoch()
	for i := 0; i < 10; i++ {
		start := base.Add(time.Duration(i) * time.Millisecond)
		r.Record(KindScope, fmt.Sprintf("relay-%d", i), start, start.Add(time.Millisecond), 7, uint64(i+1), 0)
	}
	spans := r.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if want := fmt.Sprintf("relay-%d", 6+i); s.Op != want {
			t.Errorf("span %d = %q, want %q (newest retained, in order)", i, s.Op, want)
		}
	}
	if r.SpanCount() != 10 || r.Dropped() != 6 {
		t.Errorf("count/dropped = %d/%d, want 10/6", r.SpanCount(), r.Dropped())
	}
}

// TestChromeTraceMultiProcess validates the merged multi-process export:
// distinct pids with process_name metadata, timestamps rebased to the
// earliest epoch, and tids preserving goroutine attribution.
func TestChromeTraceMultiProcess(t *testing.T) {
	base := time.Unix(1000, 0)
	procs := []ProcessTrace{
		{Name: "chet-router", PID: 1, Epoch: base.Add(time.Second), Spans: []Span{
			{Kind: KindScope, Op: "relay:w0", Start: 0, Dur: 5 * time.Millisecond,
				GID: 11, TraceID: 0xAB, SpanID: 2, Parent: 1},
		}},
		{Name: "worker:127.0.0.1:7001", PID: 2, Epoch: base, Spans: []Span{
			{Kind: KindScope, Op: "request", Start: time.Second, Dur: 4 * time.Millisecond,
				GID: 22, TraceID: 0xAB, SpanID: 3, Parent: 2},
			{Kind: KindOp, Op: "queue-wait", Start: time.Second, Dur: time.Millisecond,
				GID: 22, TraceID: 0xAB, SpanID: 0, Parent: 2, LevelIn: -1, LevelOut: -1},
		}},
	}
	var buf bytes.Buffer
	if err := WriteChromeTraceMulti(&buf, procs, map[string]any{"fleet": 2}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Pid  int            `json:"pid"`
			Tid  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v\n%s", err, buf.String())
	}
	names := map[int]string{}
	var spanEvents int
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			names[e.Pid] = fmt.Sprint(e.Args["name"])
			continue
		}
		spanEvents++
		switch e.Name {
		case "relay:w0":
			if e.Pid != 1 || e.Tid != 11 {
				t.Errorf("router span on pid/tid %d/%d, want 1/11", e.Pid, e.Tid)
			}
			// Router epoch is 1s after the worker's, so its t=0 span lands at
			// 1s on the merged timeline.
			if e.Ts != 1e6 {
				t.Errorf("router span ts = %v us, want 1e6 (epoch rebase)", e.Ts)
			}
			if e.Args["trace_id"] != fmt.Sprintf("%016x", 0xAB) {
				t.Errorf("router span args = %v, want trace_id", e.Args)
			}
		case "request":
			if e.Pid != 2 || e.Tid != 22 {
				t.Errorf("worker span on pid/tid %d/%d, want 2/22", e.Pid, e.Tid)
			}
			if e.Ts != 1e6 {
				t.Errorf("worker span ts = %v us, want 1e6 (earliest epoch is base)", e.Ts)
			}
			if e.Args["parent"] != fmt.Sprintf("%016x", 2) {
				t.Errorf("worker request parent args = %v, want router relay span", e.Args)
			}
		}
	}
	if names[1] != "chet-router" || names[2] != "worker:127.0.0.1:7001" {
		t.Errorf("process_name metadata = %v, want both processes labeled", names)
	}
	if spanEvents != 3 {
		t.Errorf("got %d span events, want 3", spanEvents)
	}
	if fmt.Sprint(doc.OtherData["fleet"]) != "2" {
		t.Errorf("otherData lost: %v", doc.OtherData)
	}
}
