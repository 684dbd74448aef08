package ot

import (
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
const otKnownAnswer = "739617714c5207658ed3e8ee40c4ce1afc542ec6638ed590fcabd6c9f6a810cf"

func TestOTKnownAnswer(t *testing.T) {
	h := sha256.New()
	var seed [SeedLen]byte
	for i := range seed {
		seed[i] = byte(3*i + 1)
	}
	// Pad lengths straddle the one-block fast path and the PRG's 8 KiB
	// keystream buffer.
	for _, l := range []int{1, 8, 16, 17, 33, 100, 4096, 9000, 20000} {
		h.Write(Pad(seed, l))
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
			cs := CombineSenderROTs(si[k : k+tt])
			cr := CombineRecvROTs(ri[k : k+tt])
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
