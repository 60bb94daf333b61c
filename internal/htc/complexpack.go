package htc

import "chet/internal/hisa"

// This file holds the arithmetic that makes complex packing work. Under a
// complex plan two images share each slot — one in the real and one in the
// imaginary component — and every real-plaintext operation the kernels issue
// (Add, MulPlain, MulScalar, rotations, Rescale) acts componentwise, so the
// kernels stay packing-oblivious except at exactly two kinds of sites:
//
//   - additive constants (biases, Horner coefficients, polynomial constant
//     terms) must reach both components, so the real value v becomes v(1+i);
//   - ciphertext-ciphertext products must be componentwise rather than
//     complex, which takes the conjugation identity below.

// addVecBoth adds the real constant v into ciphertext c: plainly for real
// packing, and as v(1+i) — reaching both slot components — for complex
// packing. The plaintext is encoded at c's scale either way, so the
// operation is scale-neutral like every bias addition in the kernels.
func addVecBoth(b hisa.RunsBackend, complexPacked bool, c hisa.Ciphertext, v func() []hisa.Run) hisa.Ciphertext {
	if !complexPacked {
		return addPlainAt(b, c, v)
	}
	return b.AddPlainCRuns(c, v, v)
}

// addScalarBoth adds the scalar s to every slot: plainly for real packing,
// as s(1+i) for complex packing.
func addScalarBoth(b hisa.RunsBackend, complexPacked bool, c hisa.Ciphertext, s float64) hisa.Ciphertext {
	if !complexPacked {
		return b.AddScalar(c, s)
	}
	v := everySlot(b.Slots(), s)
	return b.AddPlainCRuns(c, v, v)
}

// mulPairwise computes the componentwise product of two complex-packed
// ciphertexts: for x = p+qi and y = r+si it returns pr + qs·i, so each
// packed image sees an ordinary elementwise product. It is the generic
// two-conjugation form; callers that can obtain conj(y) cheaply use
// mulPairwiseY, and the activation kernels use activationPairwise, which
// gets by with a single conjugation.
func mulPairwise(b hisa.Backend, x, y hisa.Ciphertext) hisa.Ciphertext {
	return mulPairwiseY(b, x, y, b.Conjugate(y))
}

// mulPairwiseY is mulPairwise with conj(y) supplied by the caller — one
// conjugation instead of two when ybar is already on hand (Horner loops
// conjugate the shared x once per group). With z = xy and w = x·conj(y),
//
//	z + conj(z) = 2(pr − qs)  and  w + conj(w) = 2(pr + qs),
//
// both real, and
//
//	(z+z̄)·(1−i)/4 + (w+w̄)·(1+i)/4 = pr + qs·i.
//
// The two trailing conjugations fold into one: with P = (z+w)/4 and
// Q = i·(w−z)/4, the expression above equals (P+Q) + conj(P−Q), because
// conj(P−Q) = z̄(1−i)/4 + w̄(1+i)/4.
//
// The /4 constants multiply at scale factor 4, so the encoded constant is
// round(0.25·4) = 1 exactly: the division costs two bits of scale instead of
// a full scalar-weight level, and the complex compilation's modulus chain
// stays the length of the real one. Cost versus a real ct-ct product: one
// extra Mul (and its relinearization), the trailing conjugation, and two
// exact constant multiplications — the price nGraph-HE2 pays for doubling
// batch capacity.
func mulPairwiseY(b hisa.Backend, x, y, ybar hisa.Ciphertext) hisa.Ciphertext {
	z := b.Mul(x, y)
	w := b.Mul(x, ybar)
	p := b.MulScalarC(b.Add(z, w), complex(0.25, 0), 4)
	q := b.MulScalarC(b.Sub(w, z), complex(0, 0.25), 4)
	return b.Add(b.Add(p, q), b.Conjugate(b.Sub(p, q)))
}

// activationPairwise evaluates the complex-packed monic activation
// (x + shift)·x componentwise with a single conjugation. Conjugation
// commutes with every real-scalar operation, so both factors' conjugates
// derive from conj(x) alone; working directly with the real combinations
//
//	S = x + x̄ = 2p            D = x − x̄ = 2qi
//	ts = S + 2·shift = t+t̄    td = D + 2i·shift = t−t̄
//	A = ts·S = 4·Re(t)·p      B = td·D = −4·Im(t)·q
//
// gives (A − i·B)/4 = Re(t)·Re(x) + Im(t)·Im(x)·i, the componentwise
// product, with no trailing conjugation at all, and invalid slots stay zero
// because S and D vanish there. Cost versus the real path: one extra
// Mul+relin, one conjugation, and two exact /4 constant multiplications.
func activationPairwise(b hisa.RunsBackend, x hisa.Ciphertext, shift float64) hisa.Ciphertext {
	xbar := b.Conjugate(x)
	sum := b.Add(x, xbar)
	dif := b.Sub(x, xbar)
	ts, td := sum, dif
	if shift != 0 {
		ts = b.AddScalar(ts, 2*shift)
		td = b.AddPlainCRuns(td, nil, everySlot(b.Slots(), 2*shift))
	}
	// Everything between the two products and the activation's final rescale
	// is linear, so both products stay at degree 2 and share a single
	// relinearization — halving the relin key-switches the complex path pays
	// per activation. The caller performs it after its reduce
	// (relinearization commutes with rescale), where the ciphertext is one
	// limb lighter and the key-switch cheaper.
	A := b.MulNoRelin(ts, sum)
	B := b.MulNoRelin(td, dif)
	p := b.MulScalarC(A, complex(0.25, 0), 4)
	q := b.MulScalarC(B, complex(0, -0.25), 4)
	return b.Add(p, q)
}
