package ot

import (
	"crypto/aes"
	"fmt"
	"sort"

	"aq2pnn/internal/telemetry"
)

// Coalesced token transfer: the round-bound online phase for comparison
// protocols. A tensor-wide SCM/A2BM comparison spans several OT arities
// (one per distinct group width), and running one derandomized batch per
// arity costs one round trip each. SendTokens/RecvTokens instead move the
// whole step in a single send/recv pair: the receiver packs every batch's
// derandomization shift into one bit stream, the sender answers with every
// batch's masked candidate tokens in another. Tokens are packed at their
// true width (2 bits for the {LT, EQ, GT} comparison alphabet) instead of
// one byte each, so coalescing also shrinks the token traffic 4×.
//
// Stock refills stay in lockstep because both endpoints derive the same
// refill schedule from their (symmetric) stock levels, in ascending-arity
// order; with IKNP extension the whole multi-arity refill shares a single
// Extend call, so even the refill costs one message per step.

// SendTokenBatch is the sender's view of one arity-homogeneous slice of a
// coalesced transfer: Rows[k] holds the N candidate token values of
// instance k, each value < 1<<bits.
type SendTokenBatch struct {
	N    int
	Rows [][]byte
}

// RecvTokenBatch is the receiver's counterpart: Choices[k] selects
// instance k's candidate.
type RecvTokenBatch struct {
	N       int
	Choices []int
}

// putBits writes the low w bits of v at bit position pos (LSB-first within
// each byte). w ≤ 8, so a value spans at most two bytes.
func putBits(dst []byte, pos uint64, v uint64, w uint) {
	v &= 1<<w - 1
	i, off := pos>>3, pos&7
	dst[i] |= byte(v << off)
	if off+uint64(w) > 8 {
		dst[i+1] |= byte(v >> (8 - off))
	}
}

// getBits reads w bits at bit position pos.
func getBits(src []byte, pos uint64, w uint) uint64 {
	i, off := pos>>3, pos&7
	v := uint64(src[i]) >> off
	if off+uint64(w) > 8 {
		v |= uint64(src[i+1]) << (8 - off)
	}
	return v & (1<<w - 1)
}

// bitLen is the byte length of a bit stream.
func bitLen(bits uint64) int { return int((bits + 7) / 8) }

// tokenPlan is the shared arithmetic of one coalesced transfer: per-batch
// arity widths and the two stream lengths. Both parties compute it
// identically, so stream lengths never need negotiating.
type tokenPlan struct {
	widths []uint // per batch, log2 of its arity
	dsBits uint64 // total derandomization-shift bits
	ctBits uint64 // total masked-candidate bits
	use    map[int]int
}

func planTokens(bits uint, counts func(i int) (n, insts int), batches int) (tokenPlan, error) {
	p := tokenPlan{widths: make([]uint, batches), use: map[int]int{}}
	if bits == 0 || bits > 8 {
		return p, fmt.Errorf("ot: token width %d bits outside [1,8]", bits)
	}
	for i := 0; i < batches; i++ {
		n, insts := counts(i)
		t, err := log2Arity(n)
		if err != nil {
			return p, err
		}
		p.widths[i] = uint(t)
		p.dsBits += uint64(insts) * uint64(t)
		p.ctBits += uint64(insts) * uint64(n) * uint64(bits)
		p.use[n] += insts
	}
	return p, nil
}

// needs derives the refill demand from current stock levels.
func (p tokenPlan) needs(stock func(n int) int) map[int]int {
	needs := map[int]int{}
	for n, u := range p.use {
		if s := stock(n); u > s {
			needs[n] = u - s
		}
	}
	return needs
}

// SendTokens runs the sender side of one coalesced token transfer. Every
// batch rides the same ds-recv / cts-send pair, so the call costs one
// round regardless of how many arities the comparison layout spans.
func (e *Endpoint) SendTokens(bits uint, batches []SendTokenBatch) error {
	total := 0
	for _, b := range batches {
		total += len(b.Rows)
	}
	if total == 0 {
		return nil
	}
	sp := e.Trace.Enter("ot.send.tokens", telemetry.WithAttrs(
		telemetry.Int("batches", int64(len(batches))), telemetry.Int("insts", int64(total))))
	defer e.Trace.Exit(sp)
	telemetry.Count("aq2pnn_ot_send_insts_total", uint64(total))
	plan, err := planTokens(bits, func(i int) (int, int) { return batches[i].N, len(batches[i].Rows) }, len(batches))
	if err != nil {
		return err
	}
	if err := e.refillSendMulti(plan.needs(func(n int) int { return len(e.sendStock[n]) })); err != nil {
		return err
	}
	ds, err := e.Conn.Recv()
	if err != nil {
		return err
	}
	if len(ds) != bitLen(plan.dsBits) {
		return fmt.Errorf("ot: expected %d shift bytes, got %d", bitLen(plan.dsBits), len(ds))
	}
	mask := byte(1<<bits - 1)
	out := make([]byte, bitLen(plan.ctBits))
	var dsPos, ctPos uint64
	taken := map[int]int{}
	var pad [aes.BlockSize]byte // pad[0] is the token pad; see PadInto
	for bi, b := range batches {
		n, w := b.N, plan.widths[bi]
		pre := e.sendStock[n][taken[n] : taken[n]+len(b.Rows)]
		taken[n] += len(b.Rows)
		for k, row := range b.Rows {
			if len(row) != n {
				return fmt.Errorf("ot: batch %d instance %d has %d candidates, want %d", bi, k, len(row), n)
			}
			d := int(getBits(ds, dsPos, w))
			dsPos += uint64(w)
			if d >= n {
				return fmt.Errorf("ot: shift %d out of range for N=%d", d, n)
			}
			inst := pre[k]
			if len(inst.Seeds) != n {
				return fmt.Errorf("ot: precomputed instance has arity %d, want %d", len(inst.Seeds), n)
			}
			for l := 0; l < n; l++ {
				if row[l] > mask {
					return fmt.Errorf("ot: token value exceeds %d bits", bits)
				}
				PadInto(pad[:], inst.Seeds[(l+d)%n])
				putBits(out, ctPos, uint64(row[l]^(pad[0]&mask)), bits)
				ctPos += uint64(bits)
			}
		}
	}
	if err := e.Conn.Send(out); err != nil {
		return err
	}
	for n, u := range plan.use {
		e.sendStock[n] = e.sendStock[n][u:]
	}
	return nil
}

// RecvTokens runs the receiver side; the result holds one token byte per
// instance, in batch order.
func (e *Endpoint) RecvTokens(bits uint, batches []RecvTokenBatch) ([][]byte, error) {
	total := 0
	for _, b := range batches {
		total += len(b.Choices)
	}
	if total == 0 {
		return make([][]byte, len(batches)), nil
	}
	sp := e.Trace.Enter("ot.recv.tokens", telemetry.WithAttrs(
		telemetry.Int("batches", int64(len(batches))), telemetry.Int("insts", int64(total))))
	defer e.Trace.Exit(sp)
	telemetry.Count("aq2pnn_ot_recv_insts_total", uint64(total))
	plan, err := planTokens(bits, func(i int) (int, int) { return batches[i].N, len(batches[i].Choices) }, len(batches))
	if err != nil {
		return nil, err
	}
	if err := e.refillRecvMulti(plan.needs(func(n int) int { return len(e.recvStock[n]) })); err != nil {
		return nil, err
	}
	ds := make([]byte, bitLen(plan.dsBits))
	var dsPos uint64
	taken := map[int]int{}
	for bi, b := range batches {
		n, w := b.N, plan.widths[bi]
		pre := e.recvStock[n][taken[n] : taken[n]+len(b.Choices)]
		taken[n] += len(b.Choices)
		for k, ch := range b.Choices {
			if ch < 0 || ch >= n {
				return nil, fmt.Errorf("ot: choice %d outside [0,%d)", ch, n)
			}
			putBits(ds, dsPos, uint64(((pre[k].Choice-ch)%n+n)%n), w)
			dsPos += uint64(w)
		}
	}
	if err := e.Conn.Send(ds); err != nil {
		return nil, err
	}
	cts, err := e.Conn.Recv()
	if err != nil {
		return nil, err
	}
	if len(cts) != bitLen(plan.ctBits) {
		return nil, fmt.Errorf("ot: expected %d ciphertext bytes, got %d", bitLen(plan.ctBits), len(cts))
	}
	mask := byte(1<<bits - 1)
	out := make([][]byte, len(batches))
	var ctPos uint64
	taken = map[int]int{}
	var pad [aes.BlockSize]byte // pad[0] is the token pad; see PadInto
	for bi, b := range batches {
		n := b.N
		pre := e.recvStock[n][taken[n] : taken[n]+len(b.Choices)]
		taken[n] += len(b.Choices)
		toks := make([]byte, len(b.Choices))
		for k, ch := range b.Choices {
			v := byte(getBits(cts, ctPos+uint64(ch)*uint64(bits), bits))
			ctPos += uint64(n) * uint64(bits)
			PadInto(pad[:], pre[k].Seed)
			toks[k] = v ^ (pad[0] & mask)
		}
		out[bi] = toks
	}
	for n, u := range plan.use {
		e.recvStock[n] = e.recvStock[n][u:]
	}
	return out, nil
}

// refillSendMulti tops up several arities' sender stock in one pass, in
// ascending-arity order. With IKNP extension every arity shares a single
// Extend call; dealer and harvest backends fall back to per-arity refills.
func (e *Endpoint) refillSendMulti(needs map[int]int) error {
	arities := sortedArities(needs)
	if len(arities) == 0 {
		return nil
	}
	if e.Dealer != nil || !e.UseExtension {
		for _, n := range arities {
			if err := e.refillSend(n, needs[n]); err != nil {
				return err
			}
		}
		return nil
	}
	if e.extS == nil {
		var err error
		e.extS, err = NewExtSender(e.Conn, e.HarvestGroup, e.Rng, ExtKappa)
		if err != nil {
			return err
		}
	}
	chunks, ts, total, err := refillSchedule(arities, needs)
	if err != nil {
		return err
	}
	raw, err := e.extS.Extend(total)
	if err != nil {
		return err
	}
	off := 0
	for i, n := range arities {
		t := ts[i]
		for k := 0; k < chunks[i]; k++ {
			e.sendStock[n] = append(e.sendStock[n], CombineSenderROTs(raw[off:off+t]))
			off += t
		}
	}
	return nil
}

// refillRecvMulti is the receiver counterpart of refillSendMulti.
func (e *Endpoint) refillRecvMulti(needs map[int]int) error {
	arities := sortedArities(needs)
	if len(arities) == 0 {
		return nil
	}
	if e.Dealer != nil || !e.UseExtension {
		for _, n := range arities {
			if err := e.refillRecv(n, needs[n]); err != nil {
				return err
			}
		}
		return nil
	}
	if e.extR == nil {
		var err error
		e.extR, err = NewExtReceiver(e.Conn, e.HarvestGroup, e.Rng, ExtKappa)
		if err != nil {
			return err
		}
	}
	chunks, ts, total, err := refillSchedule(arities, needs)
	if err != nil {
		return err
	}
	raw, err := e.extR.Extend(total)
	if err != nil {
		return err
	}
	off := 0
	for i, n := range arities {
		t := ts[i]
		for k := 0; k < chunks[i]; k++ {
			e.recvStock[n] = append(e.recvStock[n], CombineRecvROTs(raw[off:off+t]))
			off += t
		}
	}
	return nil
}

func sortedArities(needs map[int]int) []int {
	arities := make([]int, 0, len(needs))
	for n := range needs {
		arities = append(arities, n)
	}
	sort.Ints(arities)
	return arities
}

// refillSchedule applies the minChunk floor per arity and totals the raw
// 1-of-2 correlations one Extend call must mint. Both endpoints compute it
// from symmetric stock levels, so the schedules agree without negotiation.
func refillSchedule(arities []int, needs map[int]int) (chunks, ts []int, total int, err error) {
	chunks = make([]int, len(arities))
	ts = make([]int, len(arities))
	for i, n := range arities {
		t, err := log2Arity(n)
		if err != nil {
			return nil, nil, 0, err
		}
		chunk := needs[n]
		if chunk < minChunk {
			chunk = minChunk
		}
		chunks[i], ts[i] = chunk, t
		total += chunk * t
	}
	return chunks, ts, total, nil
}
