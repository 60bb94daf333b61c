package boot

import (
	"math"
	"math/big"
	"testing"

	"chet/internal/ckks"
)

// centeredCoeffs decrypts ct and returns its centered integer coefficients
// as float64 (lossy above 2^53, fine for diagnostics).
func centeredCoeffs(ctx *bootCtx, ct *ckks.Ciphertext) []float64 {
	pt := ctx.decr.Decrypt(ct)
	r := ctx.params.Ring()
	tmp := r.NewPoly(ct.Lvl)
	tmp.CopyLevel(pt.Value, ct.Lvl)
	r.InvNTT(tmp, ct.Lvl)
	big := r.PolyToBigintCentered(tmp, ct.Lvl)
	out := make([]float64, len(big))
	for i, b := range big {
		f, _ := new(bigFloat).SetInt(b).Float64()
		out[i] = f
	}
	return out
}

type bigFloat = big.Float

func decodeSlots(ctx *bootCtx, ct *ckks.Ciphertext) []complex128 {
	return ctx.enc.DecodeComplex(ctx.decr.Decrypt(ct))
}

func TestBootstrapStages(t *testing.T) {
	ctx := newBootCtx(t, 9, 3, 2)
	params, ev := ctx.params, ctx.ev
	spec := ctx.spec
	r := params.Ring()
	slots := params.Slots()
	gap := spec.Gap()
	n := params.N()
	q0 := float64(params.Qi(0))
	delta := params.DefaultScale()

	values := randVec(slots, 1, 11)
	pt := ctx.enc.Encode(values, delta, 0)
	ct := ctx.encr.Encrypt(pt)

	// Reference coefficient vector of the encoded message.
	refCoeffs := centeredCoeffs(ctx, ct)

	low := &ckks.Ciphertext{C0: r.GetPoly(0), C1: r.GetPoly(0), Scale: ct.Scale, Lvl: 0}
	low.C0.CopyLevel(ct.C0, 0)
	low.C1.CopyLevel(ct.C1, 0)
	cur := ev.ModRaise(low)

	// Stage 1: modraise decrypts to m + q0*I.
	c1 := centeredCoeffs(ctx, cur)
	maxI := 0.0
	for i := range c1 {
		d := c1[i] - refCoeffs[i]
		q := d / q0
		if math.Abs(q-math.Round(q)) > 1e-6 {
			t.Fatalf("stage modraise: coeff %d residual %g not multiple of q0", i, d)
		}
		if math.Abs(q) > maxI {
			maxI = math.Abs(q)
		}
	}
	t.Logf("modraise: max |I| = %g (K=%d)", maxI, spec.K)

	// Stage 2: subsum projects onto the subring x gap.
	for amt := slots; amt < n/2; amt <<= 1 {
		rot := ev.ApplyGalois(cur, r.GaloisElementForRotation(amt))
		next := ev.Add(cur, rot)
		ev.Recycle(rot)
		ev.Recycle(cur)
		cur = next
	}
	c2 := centeredCoeffs(ctx, cur)
	maxJ, worstFrac := 0.0, 0.0
	for i := 0; i < slots; i++ {
		for _, idx := range []int{i * gap, i*gap + n/2} {
			d := c2[idx] - float64(gap)*refCoeffs[idx]
			q := d / q0
			if f := math.Abs(q - math.Round(q)); f > worstFrac {
				worstFrac = f
			}
			if math.Abs(q) > maxJ {
				maxJ = math.Abs(q)
			}
		}
	}
	t.Logf("subsum: max |J| = %g, worst frac dev = %g (K=%d)", maxJ, worstFrac, spec.K)
	if worstFrac > 1e-3 {
		t.Fatalf("subsum did not produce gap*m + q0*J on the subring")
	}

	// Stage 3: CoeffToSlot. Expected t_i = c2'[i] / (q0*(K+1/2)).
	kHalf := float64(spec.K) + 0.5
	alpha := ct.Scale / (2 * q0 * float64(gap) * kHalf)
	tRe, _, err := ctx.bt.CoeffToSlot(cur, alpha, false)
	if err != nil {
		t.Fatal(err)
	}
	gotT := decodeSlots(ctx, tRe)
	worstT := 0.0
	for i := 0; i < slots; i++ {
		want := c2[i*gap] / (q0 * float64(gap) * kHalf)
		if d := math.Abs(real(gotT[i]) - want); d > worstT {
			worstT = d
		}
		if math.Abs(want) > 1 {
			t.Errorf("slot %d: |t|=%g exceeds 1", i, want)
		}
	}
	t.Logf("c2s: worst |t - ref| = %g (t scale %g, lvl %d)", worstT, tRe.Scale, tRe.Lvl)
	if worstT > 1e-4 {
		t.Fatalf("CoeffToSlot output wrong")
	}

	// Stage 4: EvalMod. Expected sin(2*pi*u), u = (K+1/2)*t.
	y := ctx.bt.evalMod(tRe)
	gotY := decodeSlots(ctx, y)
	worstY := 0.0
	for i := 0; i < slots; i++ {
		u := c2[i*gap] / (q0 * float64(gap))
		want := math.Sin(2 * math.Pi * u)
		if d := math.Abs(real(gotY[i]) - want); d > worstY {
			worstY = d
		}
	}
	t.Logf("evalmod: worst |y - sin| = %g (y scale %g, lvl %d)", worstY, y.Scale, y.Lvl)
	if worstY > 1e-3 {
		for i := 0; i < slots; i++ {
			u := c2[i*gap] / (q0 * float64(gap))
			ref, _ := ctx.bt.RefEvalMod(real(gotT[i]))
			t.Logf("  slot %d: t=%g u=%g got=%g sin=%g refEvalMod(t)=%g",
				i, real(gotT[i]), u, real(gotY[i]), math.Sin(2*math.Pi*u), ref)
		}
		t.Fatalf("EvalMod output wrong")
	}

	// Stage 5: SlotToCoeff back to message.
	beta := q0 / (2 * math.Pi * ct.Scale)
	out, err := ctx.bt.SlotToCoeff(y, beta)
	if err != nil {
		t.Fatal(err)
	}
	got := ctx.enc.Decode(ctx.decr.Decrypt(out))
	worst := 0.0
	for i := range values {
		if d := math.Abs(got[i] - values[i]); d > worst {
			worst = d
		}
	}
	t.Logf("s2c: final worst err = %g", worst)
}

// TestLeakByOp brackets individual evaluator ops with the arena lease
// counter to locate leaks.
func TestLeakByOp(t *testing.T) {
	ctx := newBootCtx(t, 9, 3, 2)
	params, ev := ctx.params, ctx.ev
	r := params.Ring()
	values := randVec(params.Slots(), 1, 7)
	lvl := params.MaxLevel()
	pt := ctx.enc.Encode(values, params.DefaultScale(), lvl)
	ct := ctx.encr.Encrypt(pt)

	check := func(name string, f func()) {
		before := r.OutstandingPolys()
		f()
		if d := r.OutstandingPolys() - before; d != 0 {
			t.Errorf("%s: leaked %d", name, d)
		}
	}
	check("mul+rescale", func() {
		m := ev.Mul(ct, ct)
		ev.Rescale(m)
		ev.Recycle(m)
	})
	check("mulscalar", func() {
		m := ev.MulScalar(ct, 1.5, 2)
		ev.Recycle(m)
	})
	check("addscalar", func() {
		m := ev.AddScalar(ct, 0.5)
		ev.Recycle(m)
	})
	check("mulplain", func() {
		p := ctx.enc.Encode(values, float64(params.Qi(ct.Lvl)), ct.Lvl)
		m := ev.MulPlain(ct, p)
		ev.Recycle(m)
	})
	check("conjugate", func() {
		m := ev.Conjugate(ct)
		ev.Recycle(m)
	})
	check("mulbyi", func() {
		m := ev.MulByI(ct)
		ev.Recycle(m)
	})
	check("rotleft", func() {
		m := ev.RotateLeft(ct, 1)
		ev.Recycle(m)
	})
	check("hoisted", func() {
		ms := ev.RotSum([]*ckks.Ciphertext{ct}, [][]ckks.SumTerm{{{Rot: 0}}, {{Rot: 1}}, {{Rot: 2}}, {{Rot: 3}}})
		for _, m := range ms {
			ev.Recycle(m)
		}
	})
	check("galois", func() {
		m := ev.ApplyGalois(ct, r.GaloisElementForRotation(8))
		ev.Recycle(m)
	})
	check("modraise", func() {
		low := &ckks.Ciphertext{C0: r.GetPoly(0), C1: r.GetPoly(0), Scale: ct.Scale, Lvl: 0}
		low.C0.CopyLevel(ct.C0, 0)
		low.C1.CopyLevel(ct.C1, 0)
		m := ev.ModRaise(low)
		ev.Recycle(low)
		ev.Recycle(m)
	})
	check("droptolevel", func() {
		m := ev.Add(ct, ct)
		ev.DropToLevel(m, 2)
		ev.Recycle(m)
	})
	check("evalmod", func() {
		m := ev.MulScalar(ct, 0.01, 1)
		y := ctx.bt.evalMod(m)
		ev.Recycle(m)
		ev.Recycle(y)
	})
}
