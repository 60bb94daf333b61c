package boot

import (
	"math"
	"math/rand"
	"testing"

	"chet/internal/ckks"
	"chet/internal/ring"
)

// bootEpsilon is the documented precision budget for the bootstrap-as-
// identity property: decrypt∘bootstrap must match decrypt within this
// bound for unit-magnitude messages. The dominant error term is CKKS
// rounding noise amplified through the double-angle ladder; measured error
// sits near 1e-3 at the test ring sizes.
const bootEpsilon = 5e-2

type bootCtx struct {
	params *ckks.Parameters
	spec   Spec
	enc    *ckks.Encoder
	ev     *ckks.Evaluator
	encr   *ckks.Encryptor
	decr   *ckks.Decryptor
	bt     *Bootstrapper
}

func newBootCtx(t testing.TB, logN, logSlots, window int) *bootCtx {
	t.Helper()
	return newBootCtxAlpha(t, logN, logSlots, window, 1)
}

// newBootCtxAlpha is newBootCtx keyed for alpha special primes.
func newBootCtxAlpha(t testing.TB, logN, logSlots, window, alpha int) *bootCtx {
	t.Helper()
	spec, err := DeriveSpec(logN, logSlots, 0)
	if err != nil {
		t.Fatal(err)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     logN,
		LogQ:     spec.ChainBits(window),
		LogP:     60,
		Alpha:    alpha,
		LogScale: spec.PrimeBits,
		LogSlots: logSlots,
	})
	if err != nil {
		t.Fatalf("NewParameters: %v", err)
	}
	prng := ring.NewTestPRNG(0xB007)
	kgen := ckks.NewKeyGenerator(params, prng)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	rlk := kgen.GenRelinearizationKey(sk, params.MaxLevel())
	rtks := kgen.GenRotationKeys(sk, spec.RotationAmounts(), true)
	ev := ckks.NewEvaluator(params, rlk, rtks)
	enc := ckks.NewEncoder(params)
	bt, err := New(params, spec, ev, enc)
	if err != nil {
		t.Fatalf("boot.New: %v", err)
	}
	return &bootCtx{
		params: params,
		spec:   spec,
		enc:    enc,
		ev:     ev,
		encr:   ckks.NewEncryptor(params, pk, prng),
		decr:   ckks.NewDecryptor(params, sk),
		bt:     bt,
	}
}

func randVec(n int, bound float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = (rng.Float64()*2 - 1) * bound
	}
	return v
}

func TestSpecDerivation(t *testing.T) {
	spec, err := DeriveSpec(12, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Gap() != (1<<11)/(1<<4) {
		t.Fatalf("gap = %d", spec.Gap())
	}
	if got := len(spec.ChainBits(3)); got != 1+3+spec.Depth() {
		t.Fatalf("chain length = %d, want %d", got, 1+3+spec.Depth())
	}
	c := 2 * math.Pi * (float64(spec.K) + 0.5) / math.Exp2(float64(spec.DoubleAngles))
	if c > maxFitRange || c <= maxFitRange/2-1e-9 {
		t.Fatalf("double-angle base range %g outside (%g, %g]", c, maxFitRange/2, maxFitRange)
	}
	amts := spec.RotationAmounts()
	slots := spec.Slots()
	hasTrace := false
	for _, a := range amts {
		if a >= slots {
			if a%slots != 0 {
				t.Fatalf("trace amount %d not a multiple of slots", a)
			}
			hasTrace = true
		}
	}
	if !hasTrace {
		t.Fatal("sparse packing must include trace rotation amounts")
	}
	ops := spec.Ops()
	if ops.Rotations == 0 || ops.PlainMuls == 0 || ops.CtMuls == 0 {
		t.Fatalf("op counts empty: %+v", ops)
	}
}

func TestRefEvalModMatchesSine(t *testing.T) {
	ctx := newBootCtx(t, 9, 3, 2)
	kHalf := float64(ctx.spec.K) + 0.5
	for i := -40; i <= 40; i++ {
		u := kHalf * float64(i) / 41
		got, err := ctx.bt.RefEvalMod(u / kHalf)
		if err != nil {
			t.Fatalf("RefEvalMod(%g): %v", u/kHalf, err)
		}
		if want := math.Sin(2 * math.Pi * u); math.Abs(got-want) > 1e-6 {
			t.Fatalf("u=%g: RefEvalMod=%g sin=%g", u, got, want)
		}
	}
	// Out-of-range t must fail loudly via the polyfit domain guard.
	if _, err := ctx.bt.RefEvalMod(1.02); err == nil {
		t.Fatal("RefEvalMod should reject |t| > 1")
	}
}

// TestCoeffSlotRoundTrip: with neutral fold constants, SlotToCoeff inverts
// CoeffToSlot exactly (up to CKKS noise) — the BSGS matrices really are
// U⁻¹ and U.
func TestCoeffSlotRoundTrip(t *testing.T) {
	ctx := newBootCtx(t, 9, 4, 2)
	params, ev := ctx.params, ctx.ev
	values := randVec(params.Slots(), 1, 5)
	pt := ctx.enc.Encode(values, params.DefaultScale(), params.MaxLevel())
	ct := ctx.encr.Encrypt(pt)

	// fold ½ makes tRe/tIm the exact real/imag coefficient parts.
	tRe, tIm, err := ctx.bt.CoeffToSlot(ct, 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	ri := ev.MulByI(tIm)
	v := ev.Add(tRe, ri)
	ev.Recycle(ri)
	ev.Recycle(tRe)
	ev.Recycle(tIm)

	back, err := ctx.bt.SlotToCoeff(v, 1)
	ev.Recycle(v)
	if err != nil {
		t.Fatal(err)
	}
	got := ctx.enc.Decode(ctx.decr.Decrypt(back))
	worst := 0.0
	for i := range values {
		if d := math.Abs(got[i] - values[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-3 {
		t.Fatalf("round-trip error %g too large", worst)
	}
	ev.Recycle(back)
	ev.Recycle(ct)
}

// TestBootstrapIdentity is the core property: a full bootstrap of an
// exhausted ciphertext decrypts to the original message within the epsilon
// budget, at the fresh level, at (approximately) the original scale.
func TestBootstrapIdentity(t *testing.T) {
	for _, tc := range []struct {
		name     string
		logSlots int
		window   int
	}{
		{name: "sparse-narrow", logSlots: 3, window: 2},
		{name: "sparse-wide", logSlots: 5, window: 2},
		{name: "bigger-window", logSlots: 4, window: 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := newBootCtx(t, 9, tc.logSlots, tc.window)
			params, ev := ctx.params, ctx.ev
			values := randVec(params.Slots(), 1, 11)

			pt := ctx.enc.Encode(values, params.DefaultScale(), 0)
			ct := ctx.encr.Encrypt(pt)
			if ct.Lvl != 0 {
				t.Fatalf("input level = %d, want 0 (exhausted)", ct.Lvl)
			}

			out, err := ctx.bt.Bootstrap(ct)
			if err != nil {
				t.Fatal(err)
			}
			if out.Lvl != ctx.bt.FreshLevel() {
				t.Fatalf("output level = %d, want %d", out.Lvl, ctx.bt.FreshLevel())
			}
			// Rescale drift: each consumed prime deviates slightly from 2^40,
			// and the recorded scale tracks it exactly — so the output scale
			// is near, not equal to, the input's.
			if rel := math.Abs(out.Scale-ct.Scale) / ct.Scale; rel > 1e-3 {
				t.Fatalf("output scale drifted %g relative", rel)
			}

			got := ctx.enc.Decode(ctx.decr.Decrypt(out))
			worst := 0.0
			for i := range values {
				if d := math.Abs(got[i] - values[i]); d > worst {
					worst = d
				}
			}
			t.Logf("%s: max decode error %.3g (budget %g)", tc.name, worst, bootEpsilon)
			if worst > bootEpsilon {
				t.Fatalf("bootstrap error %g exceeds budget %g", worst, bootEpsilon)
			}
			ev.Recycle(out)
			ev.Recycle(ct)
		})
	}
}

// TestBootstrapArenaLeases: a full bootstrap returns every leased poly to
// the ring arena — the PR 7 pooled-limb contract holds across the longest
// pipeline in the codebase, basis-extension scratch of grouped key-switch
// digits included (α = 3 leaves a partial top digit and walks every level
// below it). (Extends TestRingKernelAllocs' 0-alloc gate to a leak gate.)
// The refreshed values are checked too: the pipeline is as accurate over
// grouped digits as over per-prime ones.
func TestBootstrapArenaLeases(t *testing.T) {
	for _, alpha := range []int{1, 3} {
		ctx := newBootCtxAlpha(t, 9, 3, 2, alpha)
		params, ev := ctx.params, ctx.ev
		r := params.Ring()
		values := randVec(params.Slots(), 1, 3)
		pt := ctx.enc.Encode(values, params.DefaultScale(), 0)
		ct := ctx.encr.Encrypt(pt)

		// Warm-up builds the plaintext matrix caches (NewPoly storage, never
		// leased) so the measured run is steady-state.
		warm, err := ctx.bt.Bootstrap(ct)
		if err != nil {
			t.Fatal(err)
		}
		ev.Recycle(warm)

		before := r.OutstandingPolys()
		out, err := ctx.bt.Bootstrap(ct)
		if err != nil {
			t.Fatal(err)
		}
		got := ctx.enc.Decode(ctx.decr.Decrypt(out))
		for i, v := range values {
			if math.Abs(got[i]-v) > bootEpsilon {
				t.Fatalf("α=%d: slot %d refreshed to %g, want %g", alpha, i, got[i], v)
			}
		}
		ev.Recycle(out)
		if delta := r.OutstandingPolys() - before; delta != 0 {
			t.Fatalf("α=%d: bootstrap leaked %d arena polys", alpha, delta)
		}
	}
}

// TestBootstrapChainsDepth: bootstrap twice with model-style consumption in
// between — the refreshed budget is really usable.
func TestBootstrapChainsDepth(t *testing.T) {
	ctx := newBootCtx(t, 9, 3, 2)
	params, ev := ctx.params, ctx.ev
	values := randVec(params.Slots(), 1, 19)
	pt := ctx.enc.Encode(values, params.DefaultScale(), 0)
	ct := ctx.encr.Encrypt(pt)

	out, err := ctx.bt.Bootstrap(ct)
	if err != nil {
		t.Fatal(err)
	}
	// Burn the fresh window: square twice the message... keep it linear to
	// preserve the expected vector: multiply by 1.0 plaintext and rescale.
	want := make([]float64, len(values))
	copy(want, values)
	for out.Lvl > 0 {
		ones := ctx.enc.Encode(onesVec(params.Slots()), float64(params.Qi(out.Lvl)), out.Lvl)
		next := ev.MulPlain(out, ones)
		ev.Rescale(next)
		ev.Recycle(out)
		out = next
	}
	second, err := ctx.bt.Bootstrap(out)
	ev.Recycle(out)
	if err != nil {
		t.Fatal(err)
	}
	got := ctx.enc.Decode(ctx.decr.Decrypt(second))
	for i := range want {
		if math.Abs(got[i]-want[i]) > 2*bootEpsilon {
			t.Fatalf("slot %d after two bootstraps: got %g want %g", i, got[i], want[i])
		}
	}
	ev.Recycle(second)
	ev.Recycle(ct)
}

func onesVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}
