package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"chet/internal/hisa"
	"chet/internal/nn"
	"chet/internal/ring"
	"chet/internal/tensor"
)

// outputDigest hashes the bits of every decrypted output value.
func outputDigest(ts []*tensor.Tensor) string {
	h := sha256.New()
	var buf [8]byte
	for _, t := range ts {
		for _, v := range t.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// execute runs comp on b with the given worker count and decrypts n images.
func execute(comp *Compiled, b hisa.Backend, imgs []*tensor.Tensor, workers int) []*tensor.Tensor {
	return comp.Decrypt(b, comp.Execute(b, comp.Encrypt(b, imgs...), workers), len(imgs))
}

// TestOutputsPinned pins the bits LeNet-tiny computes at N = 2^11 on Ref,
// Sim and RNS — real, batched (B = 2) and complex-packed — and a
// bootstrapped deep MLP computes at N = 2^9, so a change to how programs
// execute cannot move a single output bit; a 4-worker run equals the serial
// one.
func TestOutputsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	tiny := nn.LeNetTiny()
	imgs := []*tensor.Tensor{nn.SyntheticImage(tiny.InputShape, 7), nn.SyntheticImage(tiny.InputShape, 8)}
	cases := []struct {
		name    string
		scheme  Scheme
		batch   int
		complex bool
		want    map[string]string // by backend
	}{
		{"real", SchemeRNS, 1, false, map[string]string{"ref": "b778007deae456e3", "rns": "3dac7055ad349267"}},
		{"batched", SchemeRNS, 2, false, map[string]string{"ref": "a0368cd80ea1bb52", "rns": "f595814f3179335f"}},
		{"complex", SchemeRNS, 2, true, map[string]string{"ref": "a0368cd80ea1bb52", "rns": "08e770e4ca33d3a3"}},
		{"real", SchemeCKKS, 1, false, map[string]string{"sim": "854feab489a22adc"}},
		{"batched", SchemeCKKS, 2, false, map[string]string{"sim": "9077d84bc33cb8d1"}},
		{"complex", SchemeCKKS, 2, true, map[string]string{"sim": "250e9f8a0c962e0a"}},
	}
	for _, tc := range cases {
		comp, err := Compile(tiny.Circuit, Options{
			Scheme: tc.scheme, SecurityBits: -1, MinLogN: 11, MaxLogN: 11, Batch: tc.batch, Complex: tc.complex,
		})
		if err != nil {
			t.Fatalf("%s %v: %v", tc.name, tc.scheme, err)
		}
		in := imgs[:tc.batch]
		for name, want := range tc.want {
			backend := func() hisa.Backend {
				if name == "ref" {
					return hisa.NewRefBackend(1 << (comp.Best.LogN - 1))
				}
				b, err := BuildBackend(comp, ring.NewTestPRNG(11))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			got := outputDigest(execute(comp, backend(), in, 1))
			if got != want {
				t.Errorf("%s on %s: digest %s, pinned %s", tc.name, name, got, want)
			}
			if par := outputDigest(execute(comp, backend(), in, 4)); par != got {
				t.Errorf("%s on %s: 4 workers give %s, one %s", tc.name, name, par, got)
			}
		}
	}

	deep := nn.DeepMLP(6)
	comp, err := Compile(deep.Circuit, bootOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildBackend(comp, ring.NewTestPRNG(0xDEE9))
	if err != nil {
		t.Fatal(err)
	}
	got := outputDigest(execute(comp, b, []*tensor.Tensor{nn.SyntheticImage(deep.InputShape, 7)}, 1))
	if want := "c99c9cde69c2d960"; got != want {
		t.Errorf("bootstrapped: digest %s, pinned %s", got, want)
	}
}
