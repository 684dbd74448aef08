package ot

import (
	"crypto/aes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/transport"
)

// IKNP-style OT extension: after κ base OTs (run once, in reversed roles,
// through the Fig. 4 OT-flow), the parties can mint an unbounded stream of
// random 1-of-2 OT correlations with nothing but PRG expansion, XOR and
// hashing — three orders of magnitude cheaper than public-key base OTs.
// This is what makes the dealer-free two-process deployment scale beyond
// demo models; 1-of-2^t correlations are built by combining t extended
// instances.
//
// Protocol sketch (sender S of the resulting OTs, receiver R):
//
//	setup:  R samples κ seed PAIRS and plays base-OT sender; S samples a
//	        secret Δ ∈ {0,1}^κ and receives seed k_{Δᵢ,i} per column.
//	extend: R picks random choice bits r (one per new OT) and sends, per
//	        column i, uᵢ = G(k₀ᵢ) ⊕ G(k₁ᵢ) ⊕ r. S computes
//	        qᵢ = G(k_{Δᵢ,i}) ⊕ Δᵢ·uᵢ, so row j satisfies q_j = t_j ⊕ r_j·Δ.
//	output: S's two pads for OT j are H(j, q_j) and H(j, q_j ⊕ Δ); R holds
//	        H(j, t_j) — the pad selected by its random bit r_j.

// ExtKappa is the security parameter: the number of base-OT columns.
const ExtKappa = 128

// ExtSender is the extension state of the party that will act as the
// random-OT sender. It plays the base-OT *receiver* during setup.
type ExtSender struct {
	conn  transport.Conn
	delta []byte // κ bits, packed
	seeds [][SeedLen]byte
	// counter salts the per-row hash across Extend calls.
	counter uint64
}

// ExtReceiver is the counterpart state (base-OT sender during setup).
type ExtReceiver struct {
	conn    transport.Conn
	rng     *prg.PRG
	pairs   [][2][SeedLen]byte
	counter uint64
}

// NewExtSender runs the reversed base OTs as their receiver, with secret
// choice bits Δ.
func NewExtSender(conn transport.Conn, grp Group, rng *prg.PRG, kappa int) (*ExtSender, error) {
	if kappa <= 0 || kappa%8 != 0 {
		return nil, fmt.Errorf("ot: extension kappa %d must be a positive multiple of 8", kappa)
	}
	delta := make([]byte, kappa/8)
	rng.Read(delta)
	choices := make([]int, kappa)
	for i := range choices {
		choices[i] = int(bitOf(delta, i))
	}
	got, err := FlowRecv(conn, rng, 2, choices, SeedLen)
	if err != nil {
		return nil, fmt.Errorf("ot: extension base phase: %w", err)
	}
	seeds := make([][SeedLen]byte, kappa)
	for i := range seeds {
		copy(seeds[i][:], got[i])
	}
	return &ExtSender{conn: conn, delta: delta, seeds: seeds}, nil
}

// NewExtReceiver runs the reversed base OTs as their sender.
func NewExtReceiver(conn transport.Conn, grp Group, rng *prg.PRG, kappa int) (*ExtReceiver, error) {
	if kappa <= 0 || kappa%8 != 0 {
		return nil, fmt.Errorf("ot: extension kappa %d must be a positive multiple of 8", kappa)
	}
	pairs := make([][2][SeedLen]byte, kappa)
	msgs := make([][][]byte, kappa)
	for i := range pairs {
		rng.Read(pairs[i][0][:])
		rng.Read(pairs[i][1][:])
		msgs[i] = [][]byte{pairs[i][0][:], pairs[i][1][:]}
	}
	if err := FlowSend(conn, grp, rng, 2, msgs); err != nil {
		return nil, fmt.Errorf("ot: extension base phase: %w", err)
	}
	return &ExtReceiver{conn: conn, rng: rng, pairs: pairs}, nil
}

// expandColumn XORs a column's keystream into dst: AES-128-CTR keyed by
// the column seed from counter block salt‖0…‖0xE7, the bytes
// prg.New(seed‖salt‖0…‖0xE7) would read. The salt keeps successive Extend
// calls on fresh keystream.
func expandColumn(dst []byte, seed *[SeedLen]byte, salt uint64) {
	var iv [aes.BlockSize]byte
	binary.LittleEndian.PutUint64(iv[:8], salt)
	iv[aes.BlockSize-1] = 0xE7
	xorKeystream(dst, newCipher(seed), &iv)
}

// rowHash derives one 16-byte random-OT pad seed from a κ-bit row.
func rowHash(counter uint64, j int, row []byte) [SeedLen]byte {
	var buf [16 + ExtKappa/8]byte
	binary.LittleEndian.PutUint64(buf[:8], counter)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(j))
	return seedHash(append(buf[:16], row...))
}

// seedHash truncates SHA-256 to a pad seed. Callers hash a stack buffer,
// so deriving a seed allocates nothing.
func seedHash(msg []byte) [SeedLen]byte {
	sum := sha256.Sum256(msg)
	return [SeedLen]byte(sum[:SeedLen])
}

func bitOf(b []byte, i int) byte { return (b[i/8] >> (i % 8)) & 1 }

// transpose8 transposes the 8×8 bit matrix whose row r is byte r of x
// (bit c of that byte is column c).
func transpose8(x uint64) uint64 {
	t := (x ^ (x >> 7)) & 0x00AA00AA00AA00AA
	x ^= t ^ (t << 7)
	t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCC
	x ^= t ^ (t << 14)
	t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0
	return x ^ t ^ (t << 28)
}

// transposeRows writes rows 8b … 8b+7 of the bit matrix whose κ columns
// lie back to back in cols, nBytes each: bit i of row j is bit j of column
// i. Row 8b+r lands in rows[r*κ/8 : (r+1)*κ/8]. Extend transposes and
// hashes 8 rows at a time, so it never holds the m×κ row matrix.
func transposeRows(rows, cols []byte, nBytes, b int) {
	kb := len(rows) / 8
	for g := 0; g < kb; g++ {
		at := 8*g*nBytes + b
		var x uint64
		for k := 0; k < 8; k++ {
			x |= uint64(cols[at+k*nBytes]) << (8 * k)
		}
		x = transpose8(x)
		for r := 0; r < 8; r++ {
			rows[r*kb+g] = byte(x >> (8 * r))
		}
	}
}

// Extend mints m random 1-of-2 OT correlations on the sender side.
func (s *ExtSender) Extend(m int) ([]SenderInst, error) {
	if m <= 0 {
		return nil, fmt.Errorf("ot: extension of %d instances", m)
	}
	kappa := len(s.seeds)
	kb := kappa / 8
	nBytes := (m + 7) / 8
	us, err := s.conn.Recv()
	if err != nil {
		return nil, err
	}
	if len(us) != kappa*nBytes {
		return nil, fmt.Errorf("ot: extension expected %d u-bytes, got %d", kappa*nBytes, len(us))
	}
	// q columns: qᵢ = G(k_{Δᵢ}) ⊕ Δᵢ·uᵢ.
	cols := make([]byte, kappa*nBytes)
	for i := 0; i < kappa; i++ {
		col := cols[i*nBytes : (i+1)*nBytes]
		if bitOf(s.delta, i) == 1 {
			copy(col, us[i*nBytes:])
		}
		expandColumn(col, &s.seeds[i], s.counter)
	}
	out := make([]SenderInst, m)
	seeds := make([][SeedLen]byte, 2*m)
	rows := make([]byte, 8*kb)
	rowD := make([]byte, kb)
	for b := 0; b < nBytes; b++ {
		transposeRows(rows, cols, nBytes, b)
		for r := 0; r < 8 && 8*b+r < m; r++ {
			j := 8*b + r
			row := rows[r*kb : (r+1)*kb]
			subtle.XORBytes(rowD, row, s.delta)
			seeds[2*j] = rowHash(s.counter, j, row)
			seeds[2*j+1] = rowHash(s.counter, j, rowD)
			out[j] = SenderInst{Seeds: seeds[2*j : 2*j+2 : 2*j+2]}
		}
	}
	s.counter++
	return out, nil
}

// Extend mints m random 1-of-2 OT correlations on the receiver side.
func (r *ExtReceiver) Extend(m int) ([]RecvInst, error) {
	if m <= 0 {
		return nil, fmt.Errorf("ot: extension of %d instances", m)
	}
	kappa := len(r.pairs)
	kb := kappa / 8
	nBytes := (m + 7) / 8
	choice := make([]byte, nBytes)
	r.rng.Read(choice)
	// t columns and the u transmission: uᵢ = G(k₀ᵢ) ⊕ G(k₁ᵢ) ⊕ r.
	tCols := make([]byte, kappa*nBytes)
	us := make([]byte, kappa*nBytes)
	for i := 0; i < kappa; i++ {
		t := tCols[i*nBytes : (i+1)*nBytes]
		u := us[i*nBytes : (i+1)*nBytes]
		expandColumn(t, &r.pairs[i][0], r.counter)
		subtle.XORBytes(u, t, choice)
		expandColumn(u, &r.pairs[i][1], r.counter)
	}
	if err := r.conn.Send(us); err != nil {
		return nil, err
	}
	out := make([]RecvInst, m)
	rows := make([]byte, 8*kb)
	for b := 0; b < nBytes; b++ {
		transposeRows(rows, tCols, nBytes, b)
		for k := 0; k < 8 && 8*b+k < m; k++ {
			j := 8*b + k
			out[j] = RecvInst{Choice: int(bitOf(choice, j)), Seed: rowHash(r.counter, j, rows[k*kb:(k+1)*kb])}
		}
	}
	r.counter++
	return out, nil
}

// maxCombine is the most components CombineSenderROTs/CombineRecvROTs
// hash from a stack buffer: 1-of-256, the widest online derandomization.
const maxCombine = 8

// CombineSenderROTs fuses t random 1-of-2 correlations into one 1-of-2^t
// correlation: candidate pads are hashes of the chosen component seeds.
func CombineSenderROTs(insts []SenderInst) SenderInst {
	t := len(insts)
	seeds := make([][SeedLen]byte, 1<<t)
	var buf [maxCombine * SeedLen]byte
	for c := range seeds {
		msg := buf[:0]
		for b := 0; b < t; b++ {
			msg = append(msg, insts[b].Seeds[(c>>b)&1][:]...)
		}
		seeds[c] = seedHash(msg)
	}
	return SenderInst{Seeds: seeds}
}

// CombineRecvROTs is the receiver counterpart of CombineSenderROTs.
func CombineRecvROTs(insts []RecvInst) RecvInst {
	c := 0
	var buf [maxCombine * SeedLen]byte
	msg := buf[:0]
	for b, in := range insts {
		c |= in.Choice << b
		msg = append(msg, in.Seed[:]...)
	}
	return RecvInst{Choice: c, Seed: seedHash(msg)}
}
