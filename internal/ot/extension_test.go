package ot

import (
	"bytes"
	"sync"
	"testing"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/transport"
)

// newExtPair runs the reversed base phase and returns paired extender
// states over a pipe.
func newExtPair(t *testing.T, seed uint64) (*ExtSender, *ExtReceiver, func()) {
	t.Helper()
	a, b := transport.Pipe()
	var s *ExtSender
	var r *ExtReceiver
	var es, er error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); s, es = NewExtSender(a, TestGroup(), prg.NewSeeded(seed), ExtKappa) }()
	go func() { defer wg.Done(); r, er = NewExtReceiver(b, TestGroup(), prg.NewSeeded(seed+1), ExtKappa) }()
	wg.Wait()
	if es != nil || er != nil {
		t.Fatal(es, er)
	}
	return s, r, func() { a.Close(); b.Close() }
}

func extendPair(t *testing.T, s *ExtSender, r *ExtReceiver, m int) ([]SenderInst, []RecvInst) {
	t.Helper()
	var si []SenderInst
	var ri []RecvInst
	var es, er error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); si, es = s.Extend(m) }()
	go func() { defer wg.Done(); ri, er = r.Extend(m) }()
	wg.Wait()
	if es != nil || er != nil {
		t.Fatal(es, er)
	}
	return si, ri
}

func TestExtensionCorrelationsConsistent(t *testing.T) {
	s, r, closeFn := newExtPair(t, 1)
	defer closeFn()
	si, ri := extendPair(t, s, r, 500)
	choiceCounts := [2]int{}
	for j := range si {
		c := ri[j].Choice
		choiceCounts[c]++
		if !bytes.Equal(si[j].Seeds[c][:], ri[j].Seed[:]) {
			t.Fatalf("instance %d: receiver seed does not match sender seed[%d]", j, c)
		}
		// The unchosen pad must differ (Δ is never zero w.h.p.).
		if bytes.Equal(si[j].Seeds[1-c][:], ri[j].Seed[:]) {
			t.Fatalf("instance %d: receiver can see both pads", j)
		}
	}
	if choiceCounts[0] < 150 || choiceCounts[1] < 150 {
		t.Errorf("extension choices biased: %v", choiceCounts)
	}
}

func TestExtensionFreshAcrossCalls(t *testing.T) {
	s, r, closeFn := newExtPair(t, 2)
	defer closeFn()
	a1, _ := extendPair(t, s, r, 64)
	a2, _ := extendPair(t, s, r, 64)
	if bytes.Equal(a1[0].Seeds[0][:], a2[0].Seeds[0][:]) {
		t.Error("successive Extend calls reuse keystream")
	}
}

func TestCombineROTs(t *testing.T) {
	s, r, closeFn := newExtPair(t, 3)
	defer closeFn()
	si, ri := extendPair(t, s, r, 8)
	// Combine pairs into 1-of-4 correlations.
	for k := 0; k < 4; k++ {
		cs := CombineSenderROTs(si[2*k : 2*k+2])
		cr := CombineRecvROTs(ri[2*k : 2*k+2])
		if len(cs.Seeds) != 4 {
			t.Fatalf("combined arity %d", len(cs.Seeds))
		}
		if cr.Choice < 0 || cr.Choice > 3 {
			t.Fatalf("combined choice %d", cr.Choice)
		}
		if !bytes.Equal(cs.Seeds[cr.Choice][:], cr.Seed[:]) {
			t.Fatal("combined correlation inconsistent")
		}
		for c := 0; c < 4; c++ {
			if c != cr.Choice && bytes.Equal(cs.Seeds[c][:], cr.Seed[:]) {
				t.Fatal("combined receiver sees an unchosen pad")
			}
		}
	}
}

func TestExtensionBackedEndpoints(t *testing.T) {
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	e0 := NewEndpoint(0, a, prg.NewSeeded(4))
	e0.HarvestGroup = TestGroup()
	e0.UseExtension = true
	e1 := NewEndpoint(1, b, prg.NewSeeded(5))
	e1.HarvestGroup = TestGroup()
	e1.UseExtension = true

	count := 300
	msgs := make([][][]byte, count)
	choices := make([]int, count)
	g := prg.NewSeeded(6)
	for k := range msgs {
		msgs[k] = [][]byte{{byte(k)}, {byte(k + 1)}, {byte(k + 2)}, {byte(k + 3)}}
		choices[k] = g.Intn(4)
	}
	var got [][]byte
	var errS, errR error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); errS = e0.Send1ofN(4, msgs) }()
	go func() { defer wg.Done(); got, errR = e1.Recv1ofN(4, choices, 1) }()
	wg.Wait()
	if errS != nil || errR != nil {
		t.Fatal(errS, errR)
	}
	for k := range got {
		if got[k][0] != byte(k+choices[k]) {
			t.Fatalf("instance %d wrong message", k)
		}
	}
	// Reverse direction initializes its own extender lazily.
	msgs2 := make([][][]byte, 8)
	choices2 := make([]int, 8)
	for k := range msgs2 {
		msgs2[k] = [][]byte{{byte(10 + k)}, {byte(20 + k)}}
		choices2[k] = k % 2
	}
	wg.Add(2)
	go func() { defer wg.Done(); errS = e1.Send1ofN(2, msgs2) }()
	go func() { defer wg.Done(); got, errR = e0.Recv1ofN(2, choices2, 1) }()
	wg.Wait()
	if errS != nil || errR != nil {
		t.Fatal(errS, errR)
	}
	for k := range got {
		want := byte(10 + k)
		if choices2[k] == 1 {
			want = byte(20 + k)
		}
		if got[k][0] != want {
			t.Fatalf("reverse instance %d wrong", k)
		}
	}
}

func TestExtensionValidation(t *testing.T) {
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	if _, err := NewExtSender(a, TestGroup(), prg.NewSeeded(7), 13); err == nil {
		t.Error("non-multiple-of-8 kappa accepted")
	}
	if _, err := log2Arity(3); err == nil {
		t.Error("arity 3 accepted")
	}
	if v, _ := log2Arity(8); v != 3 {
		t.Errorf("log2Arity(8) = %d", v)
	}
	s, r, closeFn := newExtPair(t, 8)
	defer closeFn()
	if _, err := s.Extend(0); err == nil {
		t.Error("zero extension accepted")
	}
	if _, err := r.Extend(-1); err == nil {
		t.Error("negative extension accepted")
	}
}

func BenchmarkExtension1of2(b *testing.B) {
	a, c := transport.Pipe()
	defer a.Close()
	defer c.Close()
	var s *ExtSender
	var r *ExtReceiver
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); s, _ = NewExtSender(a, TestGroup(), prg.NewSeeded(9), ExtKappa) }()
	go func() { defer wg.Done(); r, _ = NewExtReceiver(c, TestGroup(), prg.NewSeeded(10), ExtKappa) }()
	wg.Wait()
	const m = 4096
	b.SetBytes(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wg.Add(2)
		go func() { defer wg.Done(); s.Extend(m) }()
		go func() { defer wg.Done(); r.Extend(m) }()
		wg.Wait()
	}
}

// TestOTHotPathAllocs pins the allocation cost of the per-instance
// primitives under refills and online derandomization. Row and combine
// hashing hash stack buffers. A pad costs the AES key schedule, plus one
// small object (a scratch block or the CTR stream) unless it is exactly
// one block long; never anything proportional to its length.
func TestOTHotPathAllocs(t *testing.T) {
	var seed [SeedLen]byte
	row := make([]byte, ExtKappa/8)
	recv := []RecvInst{{Choice: 1}, {Choice: 0}, {Choice: 1}}
	short, block, long := make([]byte, 8), make([]byte, 16), make([]byte, 20000)
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"rowHash", 0, func() { rowHash(3, 7, row) }},
		{"CombineRecvROTs", 0, func() { CombineRecvROTs(recv) }},
		{"PadInto/short", 2, func() { PadInto(short, seed) }},
		{"PadInto/block", 1, func() { PadInto(block, seed) }},
		{"PadInto/multi-block", 2, func() { PadInto(long, seed) }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got != c.want {
			t.Errorf("%s: %v allocs per call, want %v", c.name, got, c.want)
		}
	}
}
