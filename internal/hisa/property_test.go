package hisa

import (
	"math"
	"testing"
	"testing/quick"
)

// Algebraic properties that must hold on every executable backend
// (tolerances absorb the CKKS backends' approximation noise).

func TestRotationComposition(t *testing.T) {
	for _, tb := range backendsUnderTest(t) {
		b := tb.b
		slots := b.Slots()
		a := rv(slots, 2, 101)
		ct := b.Encrypt(b.Encode(a, testScale))

		f := func(j, k uint16) bool {
			x, y := int(j)%slots, int(k)%slots
			// rot(rot(ct, x), y) == rot(ct, x+y)
			lhs := b.Decode(b.Decrypt(b.RotLeft(b.RotLeft(ct, x), y)))
			rhs := b.Decode(b.Decrypt(b.RotLeft(ct, (x+y)%slots)))
			for i := range lhs {
				if math.Abs(lhs[i]-rhs[i]) > 20*tb.tol {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
	}
}

func TestAdditionCommutesWithRotation(t *testing.T) {
	for _, tb := range backendsUnderTest(t) {
		b := tb.b
		slots := b.Slots()
		x := b.Encrypt(b.Encode(rv(slots, 2, 102), testScale))
		y := b.Encrypt(b.Encode(rv(slots, 2, 103), testScale))

		// rot(x + y) == rot(x) + rot(y)
		lhs := b.Decode(b.Decrypt(b.RotLeft(b.Add(x, y), 5)))
		rhs := b.Decode(b.Decrypt(b.Add(b.RotLeft(x, 5), b.RotLeft(y, 5))))
		for i := range lhs {
			if math.Abs(lhs[i]-rhs[i]) > 20*tb.tol {
				t.Fatalf("%s: slot %d: %g vs %g", b.Name(), i, lhs[i], rhs[i])
			}
		}
	}
}

func TestMulDistributesOverAdd(t *testing.T) {
	for _, tb := range backendsUnderTest(t) {
		b := tb.b
		slots := b.Slots()
		x := b.Encrypt(b.Encode(rv(slots, 1, 104), testScale))
		y := b.Encrypt(b.Encode(rv(slots, 1, 105), testScale))
		p := b.Encode(rv(slots, 1, 106), testScale)

		// (x + y) * p == x*p + y*p
		lhs := b.Decode(b.Decrypt(b.MulPlain(b.Add(x, y), p)))
		rhs := b.Decode(b.Decrypt(b.Add(b.MulPlain(x, p), b.MulPlain(y, p))))
		for i := range lhs {
			if math.Abs(lhs[i]-rhs[i]) > 50*tb.tol {
				t.Fatalf("%s: slot %d: %g vs %g", b.Name(), i, lhs[i], rhs[i])
			}
		}
	}
}

func TestCopyIsIndependent(t *testing.T) {
	for _, tb := range backendsUnderTest(t) {
		b := tb.b
		a := rv(b.Slots(), 1, 107)
		ct := b.Encrypt(b.Encode(a, testScale))
		cp := b.Copy(ct)
		// Mutating through an op on the original must not affect the copy.
		_ = b.AddScalar(ct, 100)
		got := b.Decode(b.Decrypt(cp))
		for i := range a {
			if math.Abs(got[i]-a[i]) > 10*tb.tol {
				t.Fatalf("%s: copy changed: slot %d %g vs %g", b.Name(), i, got[i], a[i])
			}
		}
	}
}

func TestEvaluationOnlyRNSBackendCannotDecrypt(t *testing.T) {
	full := newRNSTestBackend(t, []int{1})
	srv := NewRNSBackendFromKeys(full.Params(), full.PublicKeys(), nil)

	a := rv(srv.Slots(), 1, 109)
	ct := srv.Encrypt(srv.Encode(a, testScale)) // server CAN encrypt
	rot := srv.RotLeft(ct, 1)                   // and evaluate

	// ... and the client's key decrypts the server's result.
	got := full.Decode(full.Decrypt(rot))
	for i := range a {
		want := a[(i+1)%len(a)]
		if math.Abs(got[i]-want) > 1e-2 {
			t.Fatalf("slot %d: got %g want %g", i, got[i], want)
		}
	}

	// ... but the server itself cannot decrypt.
	defer func() {
		if recover() == nil {
			t.Fatal("evaluation-only backend must not decrypt")
		}
	}()
	srv.Decrypt(ct)
}
