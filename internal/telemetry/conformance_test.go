package telemetry

import (
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"

	"chet/internal/boot"
	"chet/internal/ckks"
	"chet/internal/hisa"
	"chet/internal/ring"
)

// The observers inherit the whole HISA surface, bootstrapping included,
// from hisa.Interposer.
var (
	_ hisa.Backend = (*hisa.Meter)(nil)
	_ hisa.Backend = (*hisa.Refresher)(nil)
	_ hisa.Backend = (*Tracer)(nil)
)

// observed is one arrangement of the observers over a backend.
type observed struct {
	top       hisa.Backend
	meter     *hisa.Meter
	tracer    *Tracer
	refresher *hisa.Refresher
}

func mustRefresher(t *testing.T, b hisa.Backend) *hisa.Refresher {
	t.Helper()
	rf, err := hisa.NewRefresher(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rf
}

var observerStacks = []struct {
	name  string
	build func(t *testing.T, b hisa.Backend) observed
}{
	{"meter", func(t *testing.T, b hisa.Backend) observed {
		m := hisa.NewMeter(b, nil)
		return observed{top: m, meter: m}
	}},
	{"tracer", func(t *testing.T, b hisa.Backend) observed {
		tr := NewTracer(b, Config{})
		return observed{top: tr, tracer: tr}
	}},
	{"refresher", func(t *testing.T, b hisa.Backend) observed {
		rf := mustRefresher(t, b)
		return observed{top: rf, refresher: rf}
	}},
	// The serving stack: triggered refreshes pass through meter and tracer.
	{"refresher(meter(tracer))", func(t *testing.T, b hisa.Backend) observed {
		tr := NewTracer(b, Config{})
		m := hisa.NewMeter(tr, nil)
		rf := mustRefresher(t, m)
		return observed{top: rf, meter: m, tracer: tr, refresher: rf}
	}},
	// Inside out: triggered refreshes happen below both counters.
	{"tracer(meter(refresher))", func(t *testing.T, b hisa.Backend) observed {
		rf := mustRefresher(t, b)
		m := hisa.NewMeter(rf, nil)
		tr := NewTracer(m, Config{})
		return observed{top: tr, meter: m, tracer: tr, refresher: rf}
	}},
}

// conformanceBackends builds the three executable backends, all bootstrap-
// capable, on 8 slots.
func conformanceBackends(t *testing.T) []hisa.Backend {
	t.Helper()
	spec, err := boot.DeriveSpec(9, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     spec.LogN,
		LogQ:     spec.ChainBits(2),
		LogP:     60,
		LogScale: spec.PrimeBits,
		LogSlots: spec.LogSlots,
	})
	if err != nil {
		t.Fatalf("NewParameters: %v", err)
	}
	return []hisa.Backend{
		hisa.NewRefBackend(8),
		hisa.NewSimBackend(hisa.SimParams{LogN: 4, LogQ: 209, Seed: 9, NoNoise: true, Bootstrap: &hisa.SimBootstrap{}}),
		hisa.NewRNSBackend(hisa.RNSConfig{Params: params, PRNG: ring.NewTestPRNG(0xC0F), Bootstrap: &spec}),
	}
}

// conformanceInputs are built once on the bare backend and shared by the
// bare and the observed run, so every result is comparable bit for bit.
type conformanceInputs struct {
	values []float64
	p      hisa.Plaintext
	c, c2  hisa.Ciphertext
	// low is an operand below the refresh floor wherever the backend has a
	// finite budget.
	low hisa.Ciphertext
}

// burn consumes one level kernel-style: a scale-neutral scalar multiply and
// the maximal rescale.
func burn(b hisa.Backend, c hisa.Ciphertext) hisa.Ciphertext {
	m := b.MulScalar(c, 1, testScale)
	out := b.Rescale(m, b.MaxRescale(m, new(big.Int).Lsh(big.NewInt(1), 41)))
	b.Free(m)
	return out
}

func newConformanceInputs(b hisa.Backend) conformanceInputs {
	in := conformanceInputs{values: make([]float64, b.Slots())}
	for i := range in.values {
		in.values[i] = 0.25 + float64(i%7)/16
	}
	in.p = b.Encode(in.values, testScale)
	fresh := func() hisa.Ciphertext {
		raw := b.Encrypt(in.p)
		defer b.Free(raw)
		return b.DropToFresh(raw)
	}
	in.c, in.c2, in.low = fresh(), fresh(), fresh()
	for i := 0; b.BudgetOf(in.low) > 0 && i < 8; i++ {
		next := burn(b, in.low)
		b.Free(in.low)
		in.low = next
	}
	return in
}

// conformanceRun is what one pass of driveEverything produced: ciphertexts
// (decrypted by the caller on the bare backend) and plain values.
type conformanceRun struct {
	cts    []hisa.Ciphertext
	plain  [][]float64
	cplain [][]complex128
	ints   []int64
}

// driveEverything calls every Backend method, bootstrapping included.
// refreshing says b tops a Refresher: the multiplication on in.low is then
// left to trigger its own bootstrap, and is preceded by an explicit one
// otherwise, so both passes compute the same thing.
func driveEverything(t *testing.T, b hisa.Backend, in conformanceInputs, refreshing bool) conformanceRun {
	t.Helper()
	var r conformanceRun
	ct := func(c hisa.Ciphertext) hisa.Ciphertext { r.cts = append(r.cts, c); return c }
	slots := b.Slots()
	c, c2 := in.c, in.c2
	if b.Name() == "" || b.Scale(c) != testScale {
		t.Fatalf("%q: scale %g, want %g", b.Name(), b.Scale(c), testScale)
	}

	p := b.Encode(in.values, testScale)
	r.plain = append(r.plain, b.Decode(p), b.Decode(b.Decrypt(c)))
	b.Free(b.Encrypt(p)) // randomized: driven, not compared
	b.Free(b.Copy(c))

	ct(b.Add(c, c2))
	ct(b.AddPlain(c, p))
	ct(b.AddScalar(c, 0.5))
	ct(b.Sub(c, c2))
	ct(b.SubPlain(c, p))
	ct(b.SubScalar(c, 0.125))
	prod := ct(b.Mul(c, c2))
	ct(b.Mul(c, c))
	ct(b.MulPlain(c, p))
	ct(b.MulScalar(c, 1.5, testScale))

	ct(b.RotLeft(c, 1))
	ct(b.RotLeft(c, slots))
	ct(b.RotRight(c, 2))
	for _, out := range hisa.RotLeftMany(b, c, []int{1, 2, slots, 3}) {
		ct(out)
	}

	ub := new(big.Int).Lsh(big.NewInt(1), 41)
	d := b.MaxRescale(prod, ub)
	r.ints = append(r.ints, d.Int64())
	ct(b.Rescale(prod, d))
	ct(b.Rescale(c, big.NewInt(1)))

	z := make([]complex128, slots)
	for i := range z {
		z[i] = complex(in.values[i], -in.values[slots-1-i])
	}
	ct(b.Conjugate(c))
	b.Free(b.EncryptC(z, testScale))
	r.cplain = append(r.cplain, b.DecryptC(c))
	ct(b.AddPlainC(c, z))
	ct(b.MulScalarC(c, complex(0.5, -0.25), testScale))

	ct(b.Relinearize(b.MulNoRelin(c, c2)))
	deg2 := b.MulNoRelin(c, c2)
	ct(b.RelinearizeRescale(deg2, b.MaxRescale(deg2, ub)))
	ct(b.RelinearizeRescale(deg2, big.NewInt(1)))

	if !b.BootstrapCapable() {
		t.Fatalf("%s: not bootstrap-capable", b.Name())
	}
	r.ints = append(r.ints, int64(b.FreshBudget()), int64(b.BudgetOf(prod)), int64(b.BudgetOf(in.low)))
	ct(b.DropToFresh(c))
	ct(b.Bootstrap(c))
	if refreshing {
		ct(b.MulScalar(in.low, 2, testScale))
	} else {
		fresh := b.Bootstrap(in.low)
		ct(b.MulScalar(fresh, 2, testScale))
		b.Free(fresh)
	}
	return r
}

// TestObserverConformance drives every HISA method through each observer,
// alone and stacked, over each executable backend, and requires (a) results
// bit-identical to the bare backend's, (b) the Meter's count equal to the
// Tracer's span total for every instruction kind, and (c) on the lattice
// backend, no arena polynomial left leased by a Refresher-triggered
// bootstrap. An observer over a backend built without a bootstrapper says
// so, and its Bootstrap panics descriptively.
func TestObserverConformance(t *testing.T) {
	t.Run("ckks-sim without a bootstrapper/meter", func(t *testing.T) {
		m := hisa.NewMeter(hisa.NewSimBackend(hisa.SimParams{LogN: 4, LogQ: 120}), nil)
		if m.BootstrapCapable() {
			t.Fatal("a meter over a sim without a bootstrapper reports the capability")
		}
		c := m.Encrypt(m.Encode(make([]float64, m.Slots()), testScale))
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "without SimParams.Bootstrap") {
				t.Fatalf("Bootstrap panicked with %v, want the missing bootstrapper named", r)
			}
		}()
		m.Bootstrap(c)
	})
	for _, bare := range conformanceBackends(t) {
		in := newConformanceInputs(bare)
		want := driveEverything(t, bare, in, false)
		finite := bare.BudgetOf(in.low) == 0

		for _, st := range observerStacks {
			t.Run(bare.Name()+"/"+st.name, func(t *testing.T) {
				o := st.build(t, bare)
				got := driveEverything(t, o.top, in, o.refresher != nil)

				if len(got.cts) != len(want.cts) {
					t.Fatalf("%d ciphertext results, bare backend %d", len(got.cts), len(want.cts))
				}
				for i := range want.cts {
					g, w := bare.DecryptC(got.cts[i]), bare.DecryptC(want.cts[i])
					for j := range w {
						if math.Float64bits(real(g[j])) != math.Float64bits(real(w[j])) ||
							math.Float64bits(imag(g[j])) != math.Float64bits(imag(w[j])) {
							t.Fatalf("ciphertext result %d slot %d: %v, bare backend %v", i, j, g[j], w[j])
						}
					}
					if gs, ws := bare.Scale(got.cts[i]), bare.Scale(want.cts[i]); gs != ws {
						t.Errorf("ciphertext result %d: scale %g, bare backend %g", i, gs, ws)
					}
				}
				for i := range want.plain {
					for j := range want.plain[i] {
						if math.Float64bits(got.plain[i][j]) != math.Float64bits(want.plain[i][j]) {
							t.Fatalf("plain result %d slot %d: %v, bare backend %v", i, j, got.plain[i][j], want.plain[i][j])
						}
					}
				}
				for i := range want.cplain {
					for j := range want.cplain[i] {
						if got.cplain[i][j] != want.cplain[i][j] {
							t.Fatalf("complex result %d slot %d: %v, bare backend %v", i, j, got.cplain[i][j], want.cplain[i][j])
						}
					}
				}
				for i := range want.ints {
					if got.ints[i] != want.ints[i] {
						t.Errorf("integer result %d: %d, bare backend %d", i, got.ints[i], want.ints[i])
					}
				}

				if o.refresher != nil {
					wantBoots := 1 // the explicit Bootstrap call
					if finite {
						wantBoots++ // plus the one in.low triggered
					}
					if n := o.refresher.Bootstraps(); n != wantBoots {
						t.Errorf("refresher performed %d bootstraps, want %d", n, wantBoots)
					}
				}
				if o.meter != nil && o.tracer != nil {
					counts, totals := o.meter.Counts(), o.tracer.Totals()
					for k, n := range counts {
						if spans := totals[hisa.OpKind(k).String()].Count; int64(n) != spans {
							t.Errorf("%v: meter counted %d, tracer recorded %d spans", hisa.OpKind(k), n, spans)
						}
					}
					if counts[hisa.OpMul] == 0 || counts[hisa.OpRelin] == 0 || counts.Rotations() == 0 || counts[hisa.OpBootstrap] == 0 {
						t.Errorf("the driver left kinds uncounted: %v", counts)
					}
				}

				rns, isRNS := bare.(*hisa.RNSBackend)
				if o.refresher == nil || !isRNS {
					return
				}
				arena := rns.Params().Ring()
				before := arena.OutstandingPolys()
				o.top.Free(o.top.MulScalar(in.low, 2, testScale))
				if n := o.refresher.Bootstraps(); n != 3 {
					t.Errorf("refresher performed %d bootstraps, want 3", n)
				}
				if leaked := arena.OutstandingPolys() - before; leaked != 0 {
					t.Errorf("a triggered bootstrap left %d arena polys leased", leaked)
				}
			})
		}
	}
}
