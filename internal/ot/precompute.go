package ot

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"fmt"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/transport"
)

// Beaver OT precomputation (the paper's reference [5]): expensive
// group-based OTs are executed ahead of time on *random* inputs, and the
// online phase derandomizes them with two cheap messages. The AS-CST
// buffer of the accelerator plays the same role for triples; this file
// plays it for OT correlations.

// SeedLen is the byte length of a random-OT pad seed.
const SeedLen = 16

// SenderInst is the sender's view of one precomputed random 1-of-N OT:
// N pad seeds.
type SenderInst struct {
	Seeds [][SeedLen]byte
}

// RecvInst is the receiver's view: a random choice c′ and the seed of pad
// c′ only.
type RecvInst struct {
	Choice int
	Seed   [SeedLen]byte
}

// Pad expands a seed into an l-byte XOR pad.
func Pad(seed [SeedLen]byte, l int) []byte {
	p := make([]byte, l)
	PadInto(p, seed)
	return p
}

// PadInto fills dst with the XOR pad of seed, writing the same bytes Pad
// would: the AES-128-CTR keystream keyed by the seed from the 0x5C
// domain-separation IV (what prg.New(seed‖0x5C‖0…) would read).
func PadInto(dst []byte, seed [SeedLen]byte) {
	block := newCipher(&seed)
	if len(dst) == aes.BlockSize {
		// A block-sized pad is the first keystream block itself, encrypted
		// straight into dst: no scratch block to allocate. The token
		// exchanges compute their sub-byte pads this way.
		block.Encrypt(dst, padIV[:])
		return
	}
	clear(dst)
	xorKeystream(dst, block, &padIV)
}

// padIV is the initial counter block of every pad stream.
var padIV = [aes.BlockSize]byte{0x5C}

func newCipher(key *[SeedLen]byte) cipher.Block {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		//lint:allow panicfree unreachable-by-construction: aes.NewCipher fails only on key lengths other than 16/24/32, and the key is a fixed 16-byte array
		panic("ot: " + err.Error())
	}
	return block
}

// xorKeystream XORs into dst the AES-128-CTR keystream of block starting
// at counter block iv. Go's CTR mode counts big-endian over the whole
// block, as prg does, so the bytes match a prg.PRG seeded with key‖iv
// without its 8 KiB buffer. Up to one block (share messages are ≤ 8
// bytes) is a single block encryption, with no stream object.
func xorKeystream(dst []byte, block cipher.Block, iv *[aes.BlockSize]byte) {
	if len(dst) <= aes.BlockSize {
		var ks [aes.BlockSize]byte
		block.Encrypt(ks[:], iv[:])
		subtle.XORBytes(dst, dst, ks[:len(dst)])
		return
	}
	cipher.NewCTR(block, iv[:]).XORKeyStream(dst, dst)
}

// Deal produces `count` correlated random 1-of-N OT instances from a
// single dealer PRG: the trusted-dealer offline phase used by the
// in-process experiments (the paper likewise treats offline material as
// pre-deployed constants).
func Deal(g *prg.PRG, n, count int) ([]SenderInst, []RecvInst) {
	snd := make([]SenderInst, count)
	rcv := make([]RecvInst, count)
	for k := 0; k < count; k++ {
		seeds := make([][SeedLen]byte, n)
		for l := range seeds {
			g.Read(seeds[l][:])
		}
		c := g.Intn(n)
		snd[k] = SenderInst{Seeds: seeds}
		rcv[k] = RecvInst{Choice: c, Seed: seeds[c]}
	}
	return snd, rcv
}

// HarvestSend generates `count` random 1-of-N OT instances by actually
// running the OT-flow as sender: the receiver learns one random seed per
// instance and nothing else, giving both parties the same correlation a
// dealer would, without a trusted third party.
func HarvestSend(c transport.Conn, grp Group, rng *prg.PRG, n, count int) ([]SenderInst, error) {
	snd := make([]SenderInst, count)
	msgs := make([][][]byte, count)
	for k := 0; k < count; k++ {
		seeds := make([][SeedLen]byte, n)
		cand := make([][]byte, n)
		for l := range seeds {
			rng.Read(seeds[l][:])
			cand[l] = seeds[l][:]
		}
		snd[k] = SenderInst{Seeds: seeds}
		msgs[k] = cand
	}
	if err := FlowSend(c, grp, rng, n, msgs); err != nil {
		return nil, err
	}
	return snd, nil
}

// HarvestRecv is the receiver side of HarvestSend, drawing uniform choices.
func HarvestRecv(c transport.Conn, rng *prg.PRG, n, count int) ([]RecvInst, error) {
	choices := make([]int, count)
	for k := range choices {
		choices[k] = rng.Intn(n)
	}
	got, err := FlowRecv(c, rng, n, choices, SeedLen)
	if err != nil {
		return nil, err
	}
	rcv := make([]RecvInst, count)
	for k := range rcv {
		rcv[k].Choice = choices[k]
		copy(rcv[k].Seed[:], got[k])
	}
	return rcv, nil
}

// SendPre runs the online sender phase of a batch of derandomized 1-of-N
// OTs. pre must contain one precomputed instance per message set. The
// receiver first reveals d = (c′ − c) mod N; the sender answers with
// e_l = m_l ⊕ pad_{(l+d) mod N}. Online cost: 1 byte from the receiver and
// N·msgLen bytes from the sender per instance, in one message each.
func SendPre(c transport.Conn, pre []SenderInst, n int, msgs [][][]byte) error {
	if len(pre) < len(msgs) {
		return fmt.Errorf("ot: %d precomputed instances for %d transfers", len(pre), len(msgs))
	}
	if n > 256 {
		return fmt.Errorf("ot: online derandomization supports N ≤ 256, got %d", n)
	}
	msgLen := -1
	for k := range msgs {
		if len(msgs[k]) != n {
			return fmt.Errorf("ot: instance %d has %d candidates, want %d", k, len(msgs[k]), n)
		}
		for _, m := range msgs[k] {
			if msgLen == -1 {
				msgLen = len(m)
			} else if len(m) != msgLen {
				return fmt.Errorf("ot: candidate messages have mixed lengths")
			}
		}
	}
	if msgLen <= 0 {
		return fmt.Errorf("ot: empty batch or empty messages")
	}
	ds, err := c.Recv()
	if err != nil {
		return err
	}
	if len(ds) != len(msgs) {
		return fmt.Errorf("ot: expected %d shift bytes, got %d", len(msgs), len(ds))
	}
	out := make([]byte, 0, len(msgs)*n*msgLen)
	// A pad shorter than a block is a prefix of the block-sized pad, which
	// PadInto computes without scratch.
	pad := make([]byte, max(msgLen, aes.BlockSize))
	for k := range msgs {
		d := int(ds[k])
		if d >= n {
			return fmt.Errorf("ot: shift %d out of range for N=%d", d, n)
		}
		inst := pre[k]
		if len(inst.Seeds) != n {
			return fmt.Errorf("ot: precomputed instance %d has arity %d, want %d", k, len(inst.Seeds), n)
		}
		for l := 0; l < n; l++ {
			PadInto(pad, inst.Seeds[(l+d)%n])
			subtle.XORBytes(pad, pad, msgs[k][l])
			out = append(out, pad[:msgLen]...)
		}
	}
	return c.Send(out)
}

// RecvPre runs the online receiver phase: choices[k] selects instance k's
// message of length msgLen.
func RecvPre(c transport.Conn, pre []RecvInst, n int, choices []int, msgLen int) ([][]byte, error) {
	if len(pre) < len(choices) {
		return nil, fmt.Errorf("ot: %d precomputed instances for %d transfers", len(pre), len(choices))
	}
	ds := make([]byte, len(choices))
	for k, ch := range choices {
		if ch < 0 || ch >= n {
			return nil, fmt.Errorf("ot: choice %d outside [0,%d)", ch, n)
		}
		ds[k] = byte(((pre[k].Choice-ch)%n + n) % n)
	}
	if err := c.Send(ds); err != nil {
		return nil, err
	}
	cts, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if len(cts) != len(choices)*n*msgLen {
		return nil, fmt.Errorf("ot: expected %d ciphertext bytes, got %d", len(choices)*n*msgLen, len(cts))
	}
	out := make([][]byte, len(choices))
	flat := make([]byte, len(choices)*msgLen)
	pad := make([]byte, max(msgLen, aes.BlockSize)) // see SendPre
	for k, ch := range choices {
		m := flat[k*msgLen : (k+1)*msgLen]
		PadInto(pad, pre[k].Seed)
		subtle.XORBytes(m, pad, cts[(k*n+ch)*msgLen:(k*n+ch+1)*msgLen])
		out[k] = m
	}
	return out, nil
}
