package ckks

// Binary serialization for every object that crosses the client/server
// boundary in the CHET deployment model (Figure 3 of the paper): the client
// ships an encrypted image plus public evaluation keys; the server returns
// an encrypted prediction. All formats are little-endian with explicit
// length prefixes and a magic/version header so corruption is detected
// early.

import (
	"encoding/binary"
	"fmt"
	"math"

	"chet/internal/ring"
)

const (
	magicCiphertext uint32 = 0xC4E70001
	magicPublicKey  uint32 = 0xC4E70002
	magicSwitchKey  uint32 = 0xC4E70003
	magicRotKeySet  uint32 = 0xC4E70004
	magicSecretKey  uint32 = 0xC4E70005
	magicPlaintext  uint32 = 0xC4E70006
)

// writer is a tiny append-only buffer.
type writer struct{ buf []byte }

func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) f64(v float64) {
	w.u64(math.Float64bits(v))
}

func (w *writer) poly(p *ring.Poly) {
	w.u32(uint32(len(p.Coeffs)))
	for _, row := range p.Coeffs {
		w.u32(uint32(len(row)))
		for _, c := range row {
			w.u64(c)
		}
	}
}

// reader is a bounds-checked cursor.
type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("ckks: unmarshal: %s at offset %d", msg, r.pos)
	}
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.pos+4 > len(r.buf) {
		r.fail("truncated u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.buf) {
		r.fail("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

const maxPolyRows = 64

func (r *reader) poly() *ring.Poly {
	rows := int(r.u32())
	if r.err != nil {
		return nil
	}
	if rows <= 0 || rows > maxPolyRows {
		r.fail(fmt.Sprintf("implausible row count %d", rows))
		return nil
	}
	p := &ring.Poly{Coeffs: make([][]uint64, rows)}
	for i := 0; i < rows; i++ {
		n := int(r.u32())
		if r.err != nil {
			return nil
		}
		if n <= 0 || n > 1<<17 {
			r.fail(fmt.Sprintf("implausible row length %d", n))
			return nil
		}
		row := make([]uint64, n)
		for j := range row {
			row[j] = r.u64()
		}
		p.Coeffs[i] = row
	}
	return p
}

func (r *reader) expectMagic(want uint32, what string) {
	if got := r.u32(); r.err == nil && got != want {
		r.fail("bad magic for " + what)
	}
}

func (r *reader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("ckks: unmarshal: %d trailing bytes", len(r.buf)-r.pos)
	}
	return nil
}

// polySize is the encoded size of a polynomial of `rows` rows of n
// coefficients (see writer.poly).
func polySize(rows, n int) int { return 4 + rows*(4+8*n) }

// CiphertextSize is the MarshalBinary size of a degree-1 ciphertext at the
// top level — the largest a ciphertext of this parameter set encodes to.
func (p *Parameters) CiphertextSize() int {
	return 4 + 4 + 8 + 2*polySize(len(p.qChain), p.N())
}

// EvaluationKeySizes returns the MarshalBinary sizes of the three key
// objects a client uploads: the public key, the relinearization key, and a
// rotation key set holding rotationKeys switching keys. They are exact — the
// formats carry no variable-length fields — so a server can bound a
// session-open frame from its parameters alone.
func (p *Parameters) EvaluationKeySizes(rotationKeys int) (pk, rlk, rtks int) {
	n := p.N()
	swk := 4 + p.Digits(p.MaxLevel())*2*polySize(len(p.ring.Moduli), n)
	pk = 4 + 2*polySize(len(p.qChain), n)
	rlk = 4 + swk
	rtks = 4 + 4 + rotationKeys*(8+swk)
	return pk, rlk, rtks
}

// MarshalBinary encodes the ciphertext.
func (ct *Ciphertext) MarshalBinary() ([]byte, error) {
	w := &writer{}
	w.u32(magicCiphertext)
	w.u32(uint32(ct.Lvl))
	w.f64(ct.Scale)
	w.poly(ct.C0)
	w.poly(ct.C1)
	return w.buf, nil
}

// UnmarshalBinary decodes a ciphertext produced by MarshalBinary.
func (ct *Ciphertext) UnmarshalBinary(data []byte) error {
	r := &reader{buf: data}
	r.expectMagic(magicCiphertext, "ciphertext")
	lvl := int(r.u32())
	scale := r.f64()
	c0 := r.poly()
	c1 := r.poly()
	if err := r.finish(); err != nil {
		return err
	}
	if c0.Level() != lvl || c1.Level() != lvl {
		return fmt.Errorf("ckks: ciphertext level %d does not match polynomials (%d, %d)",
			lvl, c0.Level(), c1.Level())
	}
	ct.Lvl, ct.Scale, ct.C0, ct.C1 = lvl, scale, c0, c1
	return nil
}

// MarshalBinary encodes the plaintext.
func (pt *Plaintext) MarshalBinary() ([]byte, error) {
	w := &writer{}
	w.u32(magicPlaintext)
	w.u32(uint32(pt.Lvl))
	w.f64(pt.Scale)
	w.poly(pt.Value)
	return w.buf, nil
}

// UnmarshalBinary decodes a plaintext produced by MarshalBinary.
func (pt *Plaintext) UnmarshalBinary(data []byte) error {
	r := &reader{buf: data}
	r.expectMagic(magicPlaintext, "plaintext")
	lvl := int(r.u32())
	scale := r.f64()
	v := r.poly()
	if err := r.finish(); err != nil {
		return err
	}
	pt.Lvl, pt.Scale, pt.Value = lvl, scale, v
	return nil
}

// MarshalBinary encodes the secret key. Handle with care: this is the
// client's private material.
func (sk *SecretKey) MarshalBinary() ([]byte, error) {
	w := &writer{}
	w.u32(magicSecretKey)
	w.poly(sk.Value)
	return w.buf, nil
}

// UnmarshalBinary decodes a secret key.
func (sk *SecretKey) UnmarshalBinary(data []byte) error {
	r := &reader{buf: data}
	r.expectMagic(magicSecretKey, "secret key")
	v := r.poly()
	if err := r.finish(); err != nil {
		return err
	}
	sk.Value = v
	return nil
}

// MarshalBinary encodes the public encryption key.
func (pk *PublicKey) MarshalBinary() ([]byte, error) {
	w := &writer{}
	w.u32(magicPublicKey)
	w.poly(pk.B)
	w.poly(pk.A)
	return w.buf, nil
}

// UnmarshalBinary decodes a public key.
func (pk *PublicKey) UnmarshalBinary(data []byte) error {
	r := &reader{buf: data}
	r.expectMagic(magicPublicKey, "public key")
	b := r.poly()
	a := r.poly()
	if err := r.finish(); err != nil {
		return err
	}
	pk.B, pk.A = b, a
	return nil
}

func (w *writer) switchingKey(swk *SwitchingKey) {
	w.u32(uint32(len(swk.B)))
	for i := range swk.B {
		w.poly(swk.B[i])
		w.poly(swk.A[i])
	}
}

// switchingKey decodes a key and insists on the one geometry every valid
// key has: each digit's B and A span the same rows × coefficients, and there
// are fewer digits than rows (β ≤ L+1 < L+1+α). Which rows and how many
// digits a parameter set wants is Parameters.ValidateSwitchingKey's job.
func (r *reader) switchingKey() *SwitchingKey {
	digits := int(r.u32())
	if r.err != nil {
		return nil
	}
	if digits <= 0 || digits > maxDigits {
		r.fail(fmt.Sprintf("implausible digit count %d", digits))
		return nil
	}
	swk := &SwitchingKey{B: make([]*ring.Poly, digits), A: make([]*ring.Poly, digits)}
	for i := 0; i < digits; i++ {
		swk.B[i] = r.poly()
		swk.A[i] = r.poly()
		if r.err != nil {
			return nil
		}
		for _, p := range []*ring.Poly{swk.B[i], swk.A[i]} {
			if err := polyShape(p, len(swk.B[0].Coeffs), len(swk.B[0].Coeffs[0])); err != nil {
				r.fail(fmt.Sprintf("digit %d: %v", i, err))
				return nil
			}
		}
	}
	if digits >= len(swk.B[0].Coeffs) {
		r.fail(fmt.Sprintf("%d digits over %d rows", digits, len(swk.B[0].Coeffs)))
		return nil
	}
	return swk
}

// polyShape checks that p has exactly `rows` rows of n coefficients.
func polyShape(p *ring.Poly, rows, n int) error {
	if p == nil {
		return fmt.Errorf("nil polynomial")
	}
	if len(p.Coeffs) != rows {
		return fmt.Errorf("%d RNS rows, want %d", len(p.Coeffs), rows)
	}
	for i, row := range p.Coeffs {
		if len(row) != n {
			return fmt.Errorf("row %d has %d coefficients, want %d", i, len(row), n)
		}
	}
	return nil
}

// ValidateSwitchingKey checks a (deserialized) switching key against the
// exact shape this parameter set's key switch indexes: Digits(MaxLevel())
// digits, each a (B, A) pair over all L+1+α ring rows of N coefficients. An
// evaluator must only ever be handed keys that pass — the inner product
// indexes digits and rows without re-checking.
func (p *Parameters) ValidateSwitchingKey(swk *SwitchingKey) error {
	if swk == nil {
		return fmt.Errorf("ckks: nil switching key")
	}
	want := p.Digits(p.MaxLevel())
	if len(swk.B) != want || len(swk.A) != want {
		return fmt.Errorf("ckks: switching key has %d B and %d A digits, parameters (α=%d over %d chain primes) imply %d",
			len(swk.B), len(swk.A), p.Alpha(), len(p.qChain), want)
	}
	rows := len(p.ring.Moduli)
	for i := range swk.B {
		if err := polyShape(swk.B[i], rows, p.N()); err != nil {
			return fmt.Errorf("ckks: switching key digit %d (B): %v", i, err)
		}
		if err := polyShape(swk.A[i], rows, p.N()); err != nil {
			return fmt.Errorf("ckks: switching key digit %d (A): %v", i, err)
		}
	}
	return nil
}

// MarshalBinary encodes the relinearization key.
func (rlk *RelinearizationKey) MarshalBinary() ([]byte, error) {
	w := &writer{}
	w.u32(magicSwitchKey)
	w.switchingKey(rlk.Key)
	return w.buf, nil
}

// UnmarshalBinary decodes a relinearization key.
func (rlk *RelinearizationKey) UnmarshalBinary(data []byte) error {
	r := &reader{buf: data}
	r.expectMagic(magicSwitchKey, "relinearization key")
	k := r.switchingKey()
	if err := r.finish(); err != nil {
		return err
	}
	rlk.Key = k
	return nil
}

// MarshalBinary encodes the rotation key set.
func (rtks *RotationKeySet) MarshalBinary() ([]byte, error) {
	w := &writer{}
	w.u32(magicRotKeySet)
	w.u32(uint32(len(rtks.Keys)))
	// Deterministic order for reproducible wire bytes.
	gals := rtks.GaloisElements()
	for i := 1; i < len(gals); i++ {
		for j := i; j > 0 && gals[j] < gals[j-1]; j-- {
			gals[j], gals[j-1] = gals[j-1], gals[j]
		}
	}
	for _, g := range gals {
		w.u64(g)
		w.switchingKey(rtks.Keys[g])
	}
	return w.buf, nil
}

// UnmarshalBinary decodes a rotation key set.
func (rtks *RotationKeySet) UnmarshalBinary(data []byte) error {
	r := &reader{buf: data}
	r.expectMagic(magicRotKeySet, "rotation key set")
	n := int(r.u32())
	if r.err == nil && (n < 0 || n > 1<<16) {
		r.fail(fmt.Sprintf("implausible key count %d", n))
	}
	if r.err != nil {
		return r.err // before the count sizes an allocation
	}
	// A key is at least a few hundred bytes: cap the map's size hint by what
	// the buffer could possibly hold, so a lying count cannot allocate.
	keys := make(map[uint64]*SwitchingKey, min(n, len(data)/64))
	for i := 0; i < n && r.err == nil; i++ {
		g := r.u64()
		keys[g] = r.switchingKey()
	}
	if err := r.finish(); err != nil {
		return err
	}
	rtks.Keys = keys
	return nil
}
