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

// poly writes the row count, then every row as its length and its
// coefficients; an absent (nil) row of a switching key is written as length 0.
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

func (r *reader) poly() *ring.Poly { return r.polyRows(false) }

// polyRows decodes a polynomial; with holes, a row of length 0 decodes to an
// absent (nil) row, as switching keys cut below the full chain have.
func (r *reader) polyRows(holes bool) *ring.Poly {
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
		if n == 0 && holes {
			continue
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

// switchingKeySize is the encoded size of a switching key serving levels
// 0..level (see writer.switchingKey): Digits(level) (B, A) pairs over every
// ring row, of which the ksRows(level) rows carry N coefficients.
func (p *Parameters) switchingKeySize(level int) int {
	rows := len(p.ring.Moduli)
	poly := 4 + 4*rows + 8*p.N()*len(p.ksRows(level))
	return 4 + 4 + p.Digits(level)*2*poly
}

// EvaluationKeySizes returns the MarshalBinary sizes of the three key
// objects a client uploads: the public key, a relinearization key serving
// levels 0..relinLevel, and a rotation key set holding one switching key per
// Galois element of galoisLevels, each cut at its level. They are exact — the
// formats carry no variable-length fields — so a server can bound a
// session-open frame from its parameters and key plan alone.
func (p *Parameters) EvaluationKeySizes(relinLevel int, galoisLevels map[uint64]int) (pk, rlk, rtks int) {
	pk = 4 + 2*polySize(len(p.qChain), p.N())
	rlk = 4 + p.switchingKeySize(relinLevel)
	rtks = 4 + 4
	for _, level := range galoisLevels {
		rtks += 8 + p.switchingKeySize(level)
	}
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
	w.u32(uint32(swk.Level))
	for i := range swk.B {
		w.poly(swk.B[i])
		w.poly(swk.A[i])
	}
}

// switchingKey decodes a key and insists on the geometry every valid key
// has: each digit's B and A have the same rows present, of the same length,
// the level is below the row count, and there are at most level+1 digits.
// Which rows, how many digits and which level a parameter set and key plan
// want is Parameters.ValidateSwitchingKey's job.
func (r *reader) switchingKey() *SwitchingKey {
	digits := int(r.u32())
	level := int(r.u32())
	if r.err != nil {
		return nil
	}
	if digits <= 0 || digits > maxDigits {
		r.fail(fmt.Sprintf("implausible digit count %d", digits))
		return nil
	}
	swk := &SwitchingKey{B: make([]*ring.Poly, digits), A: make([]*ring.Poly, digits), Level: level}
	for i := 0; i < digits; i++ {
		swk.B[i] = r.polyRows(true)
		swk.A[i] = r.polyRows(true)
		if r.err != nil {
			return nil
		}
		for _, p := range []*ring.Poly{swk.B[i], swk.A[i]} {
			if err := sameRows(p, swk.B[0]); err != nil {
				r.fail(fmt.Sprintf("digit %d: %v", i, err))
				return nil
			}
		}
	}
	if rows := len(swk.B[0].Coeffs); level < 0 || level >= rows || digits > level+1 {
		r.fail(fmt.Sprintf("%d digits at level %d over %d rows", digits, level, rows))
		return nil
	}
	return swk
}

// sameRows checks that p has the rows of ref: as many, present in the same
// places, of the same lengths.
func sameRows(p, ref *ring.Poly) error {
	if len(p.Coeffs) != len(ref.Coeffs) {
		return fmt.Errorf("%d RNS rows, want %d", len(p.Coeffs), len(ref.Coeffs))
	}
	for i, row := range p.Coeffs {
		if len(row) != len(ref.Coeffs[i]) {
			return fmt.Errorf("row %d has %d coefficients, want %d", i, len(row), len(ref.Coeffs[i]))
		}
	}
	return nil
}

// ValidateSwitchingKey checks a (deserialized) switching key against the
// exact shape a key serving levels 0..level has under this parameter set:
// that level, Digits(level) digits, each a (B, A) pair of N coefficients in
// exactly the ksRows(level) ring rows and no others. An evaluator must only
// ever be handed keys that pass — the inner product indexes digits and rows
// without re-checking, and the evaluator trusts the level.
func (p *Parameters) ValidateSwitchingKey(swk *SwitchingKey, level int) error {
	if swk == nil {
		return fmt.Errorf("ckks: nil switching key")
	}
	if level < 0 || level > p.MaxLevel() {
		return fmt.Errorf("ckks: switching key level %d outside the chain [0, %d]", level, p.MaxLevel())
	}
	if swk.Level != level {
		return fmt.Errorf("ckks: switching key serves levels up to %d, the key plan says %d", swk.Level, level)
	}
	want := p.Digits(level)
	if len(swk.B) != want || len(swk.A) != want {
		return fmt.Errorf("ckks: switching key has %d B and %d A digits, parameters (α=%d) at level %d imply %d",
			len(swk.B), len(swk.A), p.Alpha(), level, want)
	}
	live := make([]bool, len(p.ring.Moduli))
	for _, j := range p.ksRows(level) {
		live[j] = true
	}
	shape := func(poly *ring.Poly) error {
		if poly == nil {
			return fmt.Errorf("nil polynomial")
		}
		if len(poly.Coeffs) != len(live) {
			return fmt.Errorf("%d RNS rows, want %d", len(poly.Coeffs), len(live))
		}
		for j, row := range poly.Coeffs {
			switch {
			case live[j] && len(row) != p.N():
				return fmt.Errorf("row %d has %d coefficients, want %d", j, len(row), p.N())
			case !live[j] && row != nil:
				return fmt.Errorf("row %d is present, a level-%d key has none", j, level)
			}
		}
		return nil
	}
	for i := range swk.B {
		if err := shape(swk.B[i]); err != nil {
			return fmt.Errorf("ckks: switching key digit %d (B): %v", i, err)
		}
		if err := shape(swk.A[i]); err != nil {
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
