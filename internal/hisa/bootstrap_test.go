package hisa

import (
	"math"
	"math/big"
	"testing"

	"chet/internal/boot"
	"chet/internal/ckks"
	"chet/internal/ring"
)

// newRNSBootBackend builds a real-lattice backend over a bootstrap chain
// (small test ring: the security-floor check lives in the compiler, not in
// ckks.NewParameters).
func newRNSBootBackend(t testing.TB, window int) *RNSBackend {
	t.Helper()
	spec, err := boot.DeriveSpec(9, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     spec.LogN,
		LogQ:     spec.ChainBits(window),
		LogP:     60,
		LogScale: spec.PrimeBits,
		LogSlots: spec.LogSlots,
	})
	if err != nil {
		t.Fatalf("NewParameters: %v", err)
	}
	return NewRNSBackend(RNSConfig{
		Params:    params,
		PRNG:      ring.NewTestPRNG(0xB0075),
		Bootstrap: &spec,
	})
}

// TestBootstrapIdentityCrossBackend is the capability's defining property on
// every backend: Bootstrap is the identity on the message within the
// backend's precision budget, and its output carries the fresh budget.
func TestBootstrapIdentityCrossBackend(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    Backend
		tol  float64
	}{
		{"ref", NewRefBackend(8), 1e-12},
		{"sim", NewSimBackend(SimParams{LogN: 4, LogQ: 209, Seed: 9, Bootstrap: &SimBootstrap{}}), 1e-2},
		{"rns", newRNSBootBackend(t, 2), 5e-2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.b.BootstrapCapable() {
				t.Fatalf("%s backend not bootstrap-capable", tc.b.Name())
			}
			values := rv(tc.b.Slots(), 1, 21)
			ct := tc.b.Encrypt(tc.b.Encode(values, testScale))
			out := tc.b.Bootstrap(ct)
			if got, want := tc.b.BudgetOf(out), tc.b.FreshBudget(); got != want {
				t.Fatalf("bootstrapped budget = %d, want fresh budget %d", got, want)
			}
			got := tc.b.Decode(tc.b.Decrypt(out))
			for i := range values {
				if d := math.Abs(got[i] - values[i]); d > tc.tol {
					t.Fatalf("slot %d: |%g - %g| = %g exceeds %g", i, got[i], values[i], d, tc.tol)
				}
			}
			tc.b.Free(out)
			tc.b.Free(ct)
		})
	}
}

// TestBootstrapNotCapable: backends without a bootstrapper report false
// through BootstrapCapable, including behind a Meter.
func TestBootstrapNotCapable(t *testing.T) {
	sim := NewSimBackend(SimParams{LogN: 4, LogQ: 120})
	if sim.BootstrapCapable() {
		t.Fatal("sim without SimParams.Bootstrap must not be capable")
	}
	if NewMeter(sim, nil).BootstrapCapable() {
		t.Fatal("meter over an incapable backend must not be capable")
	}
}

// TestMeterCountsBootstrap: the Meter forwards the capability and tallies
// refreshes as their own instruction.
func TestMeterCountsBootstrap(t *testing.T) {
	sim := NewSimBackend(SimParams{LogN: 4, LogQ: 209, Seed: 3, Bootstrap: &SimBootstrap{}})
	m := NewMeter(sim, nil)
	if !m.BootstrapCapable() {
		t.Fatal("meter over a capable backend must forward the capability")
	}
	ct := m.Encrypt(m.Encode(rv(m.Slots(), 1, 4), testScale))
	out := m.Bootstrap(ct)
	m.Free(out)
	m.Free(ct)
	if c := m.Counts(); c[OpBootstrap] != 1 {
		t.Fatalf("meter counted %d bootstraps, want 1", c[OpBootstrap])
	}
}

// burnLevel consumes one level kernel-style: a scale-neutral scalar multiply
// followed by the maximal rescale.
func burnLevel(t testing.TB, b Backend, ct Ciphertext) Ciphertext {
	t.Helper()
	m := b.MulScalar(ct, 1, math.Exp2(40))
	d := b.MaxRescale(m, new(big.Int).Lsh(big.NewInt(1), 41))
	out := b.Rescale(m, d)
	b.Free(m)
	return out
}

// TestRefresherKeepsDeepCircuitAlive is the end-to-end runtime property: a
// multiplication chain deeper than the fresh budget runs to completion under
// the Refresher, bootstrapping exactly when the budget floor is hit, and the
// message survives within the bootstrap epsilon.
func TestRefresherKeepsDeepCircuitAlive(t *testing.T) {
	rns := newRNSBootBackend(t, 2)
	meter := NewMeter(rns, nil)
	rf, err := NewRefresher(meter, 0)
	if err != nil {
		t.Fatal(err)
	}
	values := rv(rf.Slots(), 1, 33)
	ct := rf.Encrypt(rf.Encode(values, testScale))
	if got, want := rf.BudgetOf(ct), rf.FreshBudget(); got != want {
		t.Fatalf("fresh encryption budget = %d, want %d (DropToFresh)", got, want)
	}

	// Depth = fresh budget + 2: forces at least one mid-circuit bootstrap.
	depth := rf.FreshBudget() + 2
	for i := 0; i < depth; i++ {
		next := burnLevel(t, rf, ct)
		rf.Free(ct)
		ct = next
	}
	if rf.Bootstraps() == 0 {
		t.Fatal("deep chain completed without a bootstrap")
	}
	if c := meter.Counts(); c[OpBootstrap] != rf.Bootstraps() {
		t.Fatalf("meter saw %d bootstraps, refresher %d", c[OpBootstrap], rf.Bootstraps())
	}
	got := rf.Decode(rf.Decrypt(ct))
	for i := range values {
		if d := math.Abs(got[i] - values[i]); d > 5e-2 {
			t.Fatalf("slot %d after deep chain: |%g - %g| = %g", i, got[i], values[i], d)
		}
	}
	rf.Free(ct)
}

// TestRefresherSimLockstep: the Refresher works identically over the mock
// backend, so placement validation does not need lattice runs.
func TestRefresherSimLockstep(t *testing.T) {
	sim := NewSimBackend(SimParams{LogN: 4, LogQ: 209, Seed: 5, NoNoise: true, Bootstrap: &SimBootstrap{}})
	rf, err := NewRefresher(sim, 0)
	if err != nil {
		t.Fatal(err)
	}
	values := rv(rf.Slots(), 1, 6)
	ct := rf.Encrypt(rf.Encode(values, testScale))
	depth := rf.FreshBudget() + 3
	for i := 0; i < depth; i++ {
		next := burnLevel(t, rf, ct)
		rf.Free(ct)
		ct = next
	}
	if rf.Bootstraps() == 0 {
		t.Fatal("sim deep chain completed without a bootstrap")
	}
	got := rf.Decode(rf.Decrypt(ct))
	for i := range values {
		if d := math.Abs(got[i] - values[i]); d > 1e-6 {
			t.Fatalf("slot %d: |%g - %g| = %g", i, got[i], values[i], d)
		}
	}
}

// TestRefresherRefreshesSumSourceOnce: a mask-weighted sum of four rotations
// of a source below the floor refreshes the source once, not each rotated
// term, and computes the masked sum; a unit-weight sum of the same source
// refreshes nothing.
func TestRefresherRefreshesSumSourceOnce(t *testing.T) {
	sim := NewSimBackend(SimParams{LogN: 4, LogQ: 209, Seed: 5, NoNoise: true, Bootstrap: &SimBootstrap{}})
	rf, err := NewRefresher(sim, 0)
	if err != nil {
		t.Fatal(err)
	}
	slots := rf.Slots()
	values := rv(slots, 1, 7)
	ct := rf.Encrypt(rf.Encode(values, testScale))
	for rf.BudgetOf(ct) >= 1 {
		ct = burnLevel(t, sim, ct) // below the Refresher: no refresh yet
	}
	mask := make([]float64, slots)
	for j := 0; j < slots; j += 4 {
		mask[j] = 1
	}
	pm := rf.Encode(mask, 1<<30)
	fold := []Term{{Plain: pm}, {Rot: 1, Plain: pm}, {Rot: 2, Plain: pm}, {Rot: 3, Plain: pm}}
	rf.RotSum([]Ciphertext{ct}, [][]Term{{{}, {Rot: 1}}}, nil)
	if n := rf.Bootstraps(); n != 0 {
		t.Fatalf("a unit-weight sum refreshed %d times, want 0", n)
	}
	out := rf.RotSum([]Ciphertext{ct}, [][]Term{fold, {{}, {Rot: 2}}}, nil)
	if n := rf.Bootstraps(); n != 1 {
		t.Fatalf("a mask-weighted sum of four rotations refreshed %d times, want 1", n)
	}
	if h, ok := rf.MinHeadroom(); !ok || h >= 0 {
		t.Fatalf("headroom %d (%v), want the refresh observed below the floor", h, ok)
	}
	got := rf.Decode(rf.Decrypt(out[0]))
	for j := range got {
		want := 0.0
		for k := 0; k < 4; k++ {
			want += values[(j+k)%slots]
		}
		if d := math.Abs(got[j] - mask[j]*want); d > 1e-6 {
			t.Fatalf("slot %d: |%g - %g| = %g", j, got[j], mask[j]*want, d)
		}
	}
}
