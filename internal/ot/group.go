// Package ot implements the oblivious-transfer machinery of the
// Sec-COMM. module: the Diffie-Hellman-style "OT-flow" of Sec. 4.3.1
// (Fig. 4, Eqs. 2–5, after Chou–Orlandi) and Beaver OT precomputation
// (the paper's reference [5]) that moves the expensive group operations
// into an offline phase, leaving a cheap two-message online phase whose
// traffic scales with the adaptive bit-width.
package ot

import (
	//lint:allow prgonly crypto/rand generates the public group prime, a protocol parameter both parties learn — never share randomness
	crand "crypto/rand"
	"math/big"
	"sync"

	"aq2pnn/internal/prg"
)

// Group is the multiplicative group used by the OT-flow. The paper uses
// "the multiplicative group of integers modulo Q" with lookup tables in
// hardware; here P is a public modulus and G a generator. Protocol
// correctness holds for any modulus (it only needs commutativity of
// exponentiation); security requires P to be a large prime with G
// generating a large subgroup.
type Group struct {
	P *big.Int
	G *big.Int
}

// ElemBytes is the byte width of a serialised group element.
func (g Group) ElemBytes() int { return (g.P.BitLen() + 7) / 8 }

// Exp computes base^e mod P.
func (g Group) Exp(base, e *big.Int) *big.Int { return new(big.Int).Exp(base, e, g.P) }

// ExpG computes G^e mod P.
func (g Group) ExpG(e *big.Int) *big.Int { return g.Exp(g.G, e) }

// RandScalar samples a uniform exponent in [2, P-2] from the PRG.
func (g Group) RandScalar(r *prg.PRG) *big.Int {
	max := new(big.Int).Sub(g.P, big.NewInt(3))
	buf := make([]byte, g.ElemBytes()+8)
	r.Read(buf)
	v := new(big.Int).SetBytes(buf)
	v.Mod(v, max)
	return v.Add(v, big.NewInt(2))
}

// Encode serialises a group element at the fixed group width.
func (g Group) Encode(x *big.Int) []byte {
	out := make([]byte, g.ElemBytes())
	x.FillBytes(out)
	return out
}

// TestGroup returns a small, fast group over the Mersenne prime 2^61 − 1
// with generator 3. It keeps protocol tests quick; it is NOT intended to
// provide cryptographic strength.
func TestGroup() Group {
	return Group{P: big.NewInt((1 << 61) - 1), G: big.NewInt(3)}
}

// DefaultGroup returns the production group: a 512-bit prime generated once
// per process from the system CSPRNG, with generator 5. Generating rather
// than hardcoding keeps the repository free of magic constants while the
// offline build still works (crypto/rand.Prime is in the standard library).
func DefaultGroup() Group { return defaultGroup() }

// defaultGroup generates the prime exactly once, also when both parties
// of an in-process run ask for it at the same time.
var defaultGroup = sync.OnceValue(func() Group {
	p, err := crand.Prime(crand.Reader, 512)
	if err != nil {
		//lint:allow panicfree config-time: the group is built once per process before any protocol bytes flow, and crand.Prime fails only when the OS CSPRNG is broken
		panic("ot: cannot generate group prime: " + err.Error())
	}
	return Group{P: p, G: big.NewInt(5)}
})
