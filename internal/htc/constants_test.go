package htc

import (
	"chet/internal/circuit"
	"math"
	"sync"
	"testing"

	"chet/internal/ckks"
	"chet/internal/hisa"
	"chet/internal/nn"
)

// levelChecker is an RNS backend that checks every plaintext it is handed
// sits exactly at the level of the ciphertext it meets.
type levelChecker struct {
	*hisa.RNSBackend
	t *testing.T
}

func (b levelChecker) check(op string, c hisa.Ciphertext, p hisa.Plaintext) {
	if pl, cl := p.(*ckks.Plaintext).Level(), b.LevelOf(c); pl != cl {
		b.t.Errorf("%s: plaintext at level %d met a ciphertext at level %d", op, pl, cl)
	}
}

func (b levelChecker) MulPlain(c hisa.Ciphertext, p hisa.Plaintext) hisa.Ciphertext {
	b.check("mulplain", c, p)
	return b.RNSBackend.MulPlain(c, p)
}

func (b levelChecker) AddPlain(c hisa.Ciphertext, p hisa.Plaintext) hisa.Ciphertext {
	b.check("addplain", c, p)
	return b.RNSBackend.AddPlain(c, p)
}

// TestConstantStoreLevels runs LeNet-tiny under both pure layouts through a
// constant store on RNS: every stored plaintext is encoded at the level of
// the ciphertext it meets, so the store holds fewer rows than top-level
// plaintexts would.
func TestConstantStoreLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	rns := rnsTestBackend(t)
	b := levelChecker{RNSBackend: rns, t: t}
	m := nn.LeNetTiny()
	prog := circuit.Fold(m.Circuit).Circuit
	img := nn.SyntheticImage(m.InputShape, 3)
	sc := Scales{Pc: math.Exp2(40), Pw: math.Exp2(40), Pu: math.Exp2(40), Pm: math.Exp2(40)}
	n := int64(2 * b.Slots())
	topRows := int64(rns.Params().MaxLevel() + 1)
	for _, policy := range []LayoutPolicy{PolicyCHW, PolicyHW} {
		store := NewConstants()
		in := EncryptTensor(b, PlanFor(prog, policy), sc, img)
		Execute(b, prog, in, policy, sc, ExecOptions{Workers: 2, Constants: store})
		count, bytes := store.Plaintexts(), store.Bytes()
		if count == 0 || bytes%(n*8) != 0 {
			t.Fatalf("%v: store holds %d plaintexts in %d bytes", policy, count, bytes)
		}
		rows := bytes / (n * 8)
		if rows >= int64(count)*topRows {
			t.Fatalf("%v: %d plaintexts hold %d rows, no fewer than the %d of top-level plaintexts",
				policy, count, rows, int64(count)*topRows)
		}
		t.Logf("%v: %d plaintexts, %d rows (%d at the top level)", policy, count, rows, int64(count)*topRows)
	}
}

// TestConstantStoreConcurrentExecutions runs two executions of one program
// at once on one backend, sharing its store and evaluator (run with -race):
// both must equal a serial run without a store, bit for bit.
func TestConstantStoreConcurrentExecutions(t *testing.T) {
	if testing.Short() {
		t.Skip("real lattice execution is slow; run without -short")
	}
	b := rnsTestBackend(t)
	m := nn.LeNetTiny()
	prog := circuit.Fold(m.Circuit).Circuit
	sc := Scales{Pc: math.Exp2(40), Pw: math.Exp2(40), Pu: math.Exp2(40), Pm: math.Exp2(40)}
	in := EncryptTensor(b, PlanFor(prog, PolicyCHW), sc, nn.SyntheticImage(m.InputShape, 5))
	want := DecryptTensor(b, Execute(b, prog, in, PolicyCHW, sc, ExecOptions{}), 1)[0]

	store := NewConstants()
	outs := make([]*CipherTensor, 2)
	var wg sync.WaitGroup
	wg.Add(len(outs))
	for i := range outs {
		go func(i int) {
			defer wg.Done()
			outs[i] = Execute(b, prog, in, PolicyCHW, sc, ExecOptions{Workers: 2, Constants: store})
		}(i)
	}
	wg.Wait()
	for i, out := range outs {
		requireBitIdentical(t, "concurrent execution "+string(rune('A'+i)), want, DecryptTensor(b, out, 1)[0])
	}
}
