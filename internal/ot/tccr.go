package ot

import (
	"crypto/aes"
	"encoding/binary"
)

// Fixed-key hashing. Every row hash, combine and pad in this package is
// one primitive, the tweakable correlation-robust hash of Guo, Katz, Wang
// and Yu ("Efficient and Secure Multiparty Computation from Fixed-Key
// Block Ciphers", S&P 2020):
//
//	H(x, i) = π(π(x) ⊕ i) ⊕ π(x)
//
// where π is AES-128 under the public constant key piKey, its schedule
// expanded once per process. IKNP rows are Δ-correlated (the sender
// hashes q_j and q_j ⊕ Δ), and this tweakable form is the one GKWY prove
// secure for exactly that input distribution; the simpler π(x⊕i)⊕x⊕i is
// not. No hash re-keys AES, so the per-instance cost is a few block
// encryptions.
//
// A tweak is one block. The top byte of its high word names the domain,
// so row, combine and pad hashes never share a tweak:
//
//	row j of Extend call ctr:        (lo j, hi domRow | ctr)
//	component b of combined pad c:   (lo c, hi domCombine | b)
//	block k of a pad:                (lo k, hi domPad)
const (
	domRow     = 1 << 56
	domCombine = 2 << 56
	domPad     = 3 << 56
)

// piKey is π's public key. Its value is arbitrary but fixed: it is part of
// the transcript, like the tweak layout.
var piKey = [SeedLen]byte{'a', 'q', '2', 'p', 'n', 'n', '/', 'o', 't', '/', 't', 'c', 'c', 'r', '/', '1'}

// pi is π. A crypto/aes block only reads its expanded key, so both
// parties' goroutines share it.
var pi = newCipher(&piKey)

// block is one AES block as two little-endian words, so XOR is two word
// operations.
type block struct{ lo, hi uint64 }

func loadBlock(b []byte) block {
	return block{binary.LittleEndian.Uint64(b[:8]), binary.LittleEndian.Uint64(b[8:16])}
}

func (x block) xor(y block) block { return block{x.lo ^ y.lo, x.hi ^ y.hi} }

func (x block) bytes() (out [SeedLen]byte) {
	binary.LittleEndian.PutUint64(out[:8], x.lo)
	binary.LittleEndian.PutUint64(out[8:], x.hi)
	return out
}

// tccr is the caller-owned scratch block for π. π is reached through the
// cipher.Block interface, whose arguments escape, so each batch allocates
// one tccr and the per-instance hashes below allocate nothing.
type tccr [aes.BlockSize]byte

// perm returns π(x).
func (h *tccr) perm(x block) block {
	binary.LittleEndian.PutUint64(h[:8], x.lo)
	binary.LittleEndian.PutUint64(h[8:], x.hi)
	pi.Encrypt(h[:], h[:])
	return loadBlock(h[:])
}

// hashPerm returns H(x, i) given px = π(x), so a caller hashing one x
// under several tweaks encrypts x once.
func (h *tccr) hashPerm(px, i block) block { return h.perm(px.xor(i)).xor(px) }

// hash returns H(x, i).
func (h *tccr) hash(x, i block) block { return h.hashPerm(h.perm(x), i) }

// rowHash derives the pad seed of row j of Extend call ctr (ctr < 2^56).
func (h *tccr) rowHash(ctr uint64, j int, row block) [SeedLen]byte {
	return h.hash(row, block{uint64(j), domRow | ctr}).bytes()
}

// pad fills dst with the XOR pad of seed: block k is H(seed, (domPad, k)),
// truncated at the end of dst, so a pad costs 1 + ⌈len(dst)/16⌉ block
// encryptions.
func (h *tccr) pad(dst []byte, seed *[SeedLen]byte) {
	ps := h.perm(loadBlock(seed[:]))
	for k := uint64(0); len(dst) > 0; k++ {
		b := h.hashPerm(ps, block{k, domPad}).bytes()
		dst = dst[copy(dst, b[:]):]
	}
}

// maxCombine is the most components a combined correlation may have:
// 1-of-256, the widest online derandomization.
const maxCombine = 8

// combineSend fuses t ≤ maxCombine random 1-of-2 correlations into one
// 1-of-2^t correlation: seed_c = ⊕_b H(s_{b,c_b}, (domCombine, c, b)), where
// c_b is bit b of c. Each component seed is encrypted once, so the 2^t
// seeds cost 2t + t·2^t block encryptions.
func (h *tccr) combineSend(insts []SenderInst) SenderInst {
	var ps [maxCombine][2]block
	for b, in := range insts {
		ps[b][0] = h.perm(loadBlock(in.Seeds[0][:]))
		ps[b][1] = h.perm(loadBlock(in.Seeds[1][:]))
	}
	seeds := make([][SeedLen]byte, 1<<len(insts))
	for c := range seeds {
		var acc block
		for b := range insts {
			acc = acc.xor(h.hashPerm(ps[b][(c>>b)&1], block{uint64(c), domCombine | uint64(b)}))
		}
		seeds[c] = acc.bytes()
	}
	return SenderInst{Seeds: seeds}
}

// combineRecv is the receiver counterpart of combineSend: it learns
// seed_c for its combined choice c only.
func (h *tccr) combineRecv(insts []RecvInst) RecvInst {
	c := 0
	for b, in := range insts {
		c |= in.Choice << b
	}
	var acc block
	for b, in := range insts {
		acc = acc.xor(h.hash(loadBlock(in.Seed[:]), block{uint64(c), domCombine | uint64(b)}))
	}
	return RecvInst{Choice: c, Seed: acc.bytes()}
}
