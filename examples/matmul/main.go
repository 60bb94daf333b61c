// The paper's motivating example (Section 3.1, Figure 1): homomorphic
// 2x2 matrix-matrix multiplication written directly against the HISA, on
// real RNS-CKKS lattice cryptography.
//
// The client lays A out with padding (one empty slot between elements) so a
// single rotate-and-add replicates every a_ij twice; B is replicated
// whole. One ciphertext-ciphertext multiplication then produces all eight
// products c_ijk = a_ij * b_jk at slot 4i+2j+k, a rotate-and-add sums over
// j, and a mask isolates the result — whose layout differs from both
// inputs, exactly the bookkeeping CHET automates.
//
//	go run ./examples/matmul
package main

import (
	"fmt"
	"log"
	"math"
	"math/big"

	"chet/internal/ckks"
	"chet/internal/hisa"
	"chet/internal/ring"
)

func main() {
	log.SetFlags(0)
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     12,
		LogQ:     []int{50, 40, 40, 40},
		LogP:     50,
		LogScale: 40,
	})
	if err != nil {
		log.Fatal(err)
	}
	slots := params.Slots()
	b := hisa.NewRNSBackend(hisa.RNSConfig{
		Params: params,
		PRNG:   ring.NewCryptoPRNG(),
		// Exactly the rotations this circuit needs — what CHET's
		// rotation-keys selection pass would provision.
		Keys: hisa.FullChainKeys(params, 2, slots-1, slots-4),
	})

	a := [2][2]float64{{1.5, -2.0}, {0.25, 3.0}}
	bm := [2][2]float64{{-1.0, 0.5}, {2.0, 1.25}}

	scale := params.DefaultScale()

	// Client-side layouts. A is padded: [a11, _, a12, _, a21, _, a22, _].
	aVec := make([]float64, slots)
	aVec[0], aVec[2], aVec[4], aVec[6] = a[0][0], a[0][1], a[1][0], a[1][1]
	// B is row-major: [b11, b12, b21, b22].
	bVec := make([]float64, slots)
	bVec[0], bVec[1], bVec[2], bVec[3] = bm[0][0], bm[0][1], bm[1][0], bm[1][1]

	ctA := b.Encrypt(b.Encode(aVec, scale))
	ctB := b.Encrypt(b.Encode(bVec, scale))

	// Server side: replicate. A'' duplicates each a_ij into adjacent slots;
	// B'' repeats the whole of B four slots later.
	aRep := b.Add(ctA, b.RotRight(ctA, 1))
	bRep := b.Add(ctB, b.RotRight(ctB, 4))

	// One multiplication yields every product c_ijk = a_ij * b_jk.
	prod := b.Mul(aRep, bRep)
	d := b.MaxRescale(prod, big.NewInt(1<<41))
	prod = b.Rescale(prod, d)

	// Sum over j (slots two apart), then mask the valid result slots
	// {0, 1, 4, 5} holding c_ik at slot 4i+k.
	summed := b.Add(prod, b.RotLeft(prod, 2))
	mask := make([]float64, slots)
	mask[0], mask[1], mask[4], mask[5] = 1, 1, 1, 1
	masked := b.MulPlain(summed, b.Encode(mask, scale))
	d = b.MaxRescale(masked, big.NewInt(1<<41))
	masked = b.Rescale(masked, d)

	got := b.Decode(b.Decrypt(masked))

	fmt.Println("homomorphic 2x2 matrix multiplication (real RNS-CKKS):")
	worst := 0.0
	for i := 0; i < 2; i++ {
		for k := 0; k < 2; k++ {
			want := a[i][0]*bm[0][k] + a[i][1]*bm[1][k]
			have := got[4*i+k]
			if e := math.Abs(have - want); e > worst {
				worst = e
			}
			fmt.Printf("  c[%d][%d] = %8.4f (expected %8.4f)\n", i+1, k+1, have, want)
		}
	}
	fmt.Printf("max |err| = %.2e with 1 ct-mult, 3 rotations, 1 mask\n", worst)
	fmt.Println("note: the output layout differs from both inputs — the bookkeeping CHET automates.")
}
