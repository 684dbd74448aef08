package ot

import (
	"crypto/aes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// otKnownAnswer is the SHA-256 digest of every byte the OT correlation
// code derives from fixed seeds. The pads, extended correlations and
// combined correlations are transcript values: any change to them changes
// what crosses the wire, so a rewrite of this code that moves the digest
// also needs a protocol version bump.
const otKnownAnswer = "345c0fde1d9b40622c40290b75a32db99ba039aac4f1f89b917b87d80dea99e8"

func TestOTKnownAnswer(t *testing.T) {
	h := sha256.New()
	var seed [SeedLen]byte
	for i := range seed {
		seed[i] = byte(3*i + 1)
	}
	// Pad lengths straddle block boundaries.
	th := new(tccr)
	for _, l := range []int{1, 8, 16, 17, 33, 100, 4096, 9000, 20000} {
		p := make([]byte, l)
		th.pad(p, &seed)
		h.Write(p)
	}

	s, r, closeFn := newExtPair(t, 41)
	defer closeFn()
	var hdr [8]byte
	var si []SenderInst
	var ri []RecvInst
	// Successive Extend calls on one pair also pin the per-call salt;
	// most sizes are not multiples of 8.
	for _, m := range []int{1, 7, 64, 1000, 5003} {
		si, ri = extendPair(t, s, r, m)
		for j := range si {
			h.Write(si[j].Seeds[0][:])
			h.Write(si[j].Seeds[1][:])
			binary.LittleEndian.PutUint64(hdr[:], uint64(ri[j].Choice))
			h.Write(hdr[:])
			h.Write(ri[j].Seed[:])
		}
	}
	// Combine the last batch into 1-of-4 and 1-of-8 correlations.
	for _, tt := range []int{2, 3} {
		for k := 0; k+tt <= 60; k += tt {
			cs := th.combineSend(si[k : k+tt])
			cr := th.combineRecv(ri[k : k+tt])
			for _, sd := range cs.Seeds {
				h.Write(sd[:])
			}
			binary.LittleEndian.PutUint64(hdr[:], uint64(cr.Choice))
			h.Write(hdr[:])
			h.Write(cr.Seed[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != otKnownAnswer {
		t.Fatalf("OT known-answer digest changed:\n got  %s\n want %s", got, otKnownAnswer)
	}
}

// TestTCCRMatchesDefinition recomputes H(x, i) = π(π(x) ⊕ i) ⊕ π(x) byte
// by byte with its own AES-128 instance under piKey, for a row, a combine
// and a pad tweak, so the word-level implementation cannot drift from the
// documented construction and tweak layout.
func TestTCCRMatchesDefinition(t *testing.T) {
	c, err := aes.NewCipher(piKey[:])
	if err != nil {
		t.Fatal(err)
	}
	ref := func(x [SeedLen]byte, lo, hi uint64) [SeedLen]byte {
		var px, y, i [SeedLen]byte
		c.Encrypt(px[:], x[:])
		binary.LittleEndian.PutUint64(i[:8], lo)
		binary.LittleEndian.PutUint64(i[8:], hi)
		for k := range y {
			y[k] = px[k] ^ i[k]
		}
		c.Encrypt(y[:], y[:])
		for k := range y {
			y[k] ^= px[k]
		}
		return y
	}
	var x [SeedLen]byte
	for k := range x {
		x[k] = byte(7*k + 5)
	}
	h := new(tccr)
	if got, want := h.rowHash(9, 1000, loadBlock(x[:])), ref(x, 1000, 1<<56|9); got != want {
		t.Errorf("row hash %x, want %x", got, want)
	}
	if got, want := h.hash(loadBlock(x[:]), block{5, 2<<56 | 2}).bytes(), ref(x, 5, 2<<56|2); got != want {
		t.Errorf("combine hash %x, want %x", got, want)
	}
	p := make([]byte, 40)
	h.pad(p, &x)
	for k := 0; k < 3; k++ {
		want := ref(x, uint64(k), 3<<56)
		if n := min(16, len(p)-16*k); string(p[16*k:16*k+n]) != string(want[:n]) {
			t.Errorf("pad block %d %x, want %x", k, p[16*k:16*k+n], want[:n])
		}
	}
}
