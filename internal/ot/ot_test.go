package ot

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/transport"
)

func runPair(t *testing.T, sender func(transport.Conn) error, receiver func(transport.Conn) error) {
	t.Helper()
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	var errS, errR error
	wg.Add(2)
	go func() { defer wg.Done(); errS = sender(a) }()
	go func() { defer wg.Done(); errR = receiver(b) }()
	wg.Wait()
	if errS != nil {
		t.Fatalf("sender: %v", errS)
	}
	if errR != nil {
		t.Fatalf("receiver: %v", errR)
	}
}

func TestFlow1of2(t *testing.T) {
	msgs := [][][]byte{
		{[]byte("zero-msg"), []byte("one-msgg")},
		{[]byte("aaaaaaaa"), []byte("bbbbbbbb")},
	}
	choices := []int{1, 0}
	var got [][]byte
	runPair(t,
		func(c transport.Conn) error { return FlowSend(c, TestGroup(), prg.NewSeeded(1), 2, msgs) },
		func(c transport.Conn) error {
			var err error
			got, err = FlowRecv(c, prg.NewSeeded(2), 2, choices, 8)
			return err
		})
	if !bytes.Equal(got[0], msgs[0][1]) || !bytes.Equal(got[1], msgs[1][0]) {
		t.Fatalf("wrong messages: %q %q", got[0], got[1])
	}
}

func TestFlow1of4AllChoices(t *testing.T) {
	n := 4
	count := 16
	g := prg.NewSeeded(3)
	msgs := make([][][]byte, count)
	choices := make([]int, count)
	for k := range msgs {
		msgs[k] = make([][]byte, n)
		for l := range msgs[k] {
			m := make([]byte, 3)
			g.Read(m)
			msgs[k][l] = m
		}
		choices[k] = k % n
	}
	var got [][]byte
	runPair(t,
		func(c transport.Conn) error { return FlowSend(c, TestGroup(), prg.NewSeeded(4), n, msgs) },
		func(c transport.Conn) error {
			var err error
			got, err = FlowRecv(c, prg.NewSeeded(5), n, choices, 3)
			return err
		})
	for k := range msgs {
		if !bytes.Equal(got[k], msgs[k][choices[k]]) {
			t.Fatalf("instance %d: got %x want %x", k, got[k], msgs[k][choices[k]])
		}
	}
}

func TestFlowUnchosenMessagesUnrecoverable(t *testing.T) {
	// The receiver must not obtain the unchosen message: decrypting the
	// wrong slot with its key yields garbage. We simulate by checking the
	// two ciphertext slots differ from each other under the honest key.
	msgs := [][][]byte{{make([]byte, 16), make([]byte, 16)}} // both all-zero
	var got [][]byte
	runPair(t,
		func(c transport.Conn) error { return FlowSend(c, TestGroup(), prg.NewSeeded(6), 2, msgs) },
		func(c transport.Conn) error {
			var err error
			got, err = FlowRecv(c, prg.NewSeeded(7), 2, []int{0}, 16)
			return err
		})
	if !bytes.Equal(got[0], msgs[0][0]) {
		t.Fatal("chosen message wrong")
	}
	// Run again capturing raw traffic to confirm the other slot's pad is
	// independent: with identical plaintexts the ciphertext slots differ.
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() { done <- FlowSend(a, TestGroup(), prg.NewSeeded(8), 2, msgs) }()
	hdr, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	h, err := decodeFlowHeader(hdr)
	if err != nil {
		t.Fatal(err)
	}
	// Honest receiver behaviour for choice 0.
	rng := prg.NewSeeded(9)
	rj := h.group.RandScalar(rng)
	r := h.group.Encode(h.group.Exp(h.rHat, h.labels[0]))
	xorInto(r, h.group.Encode(h.group.ExpG(rj)))
	if err := b.Send(r); err != nil {
		t.Fatal(err)
	}
	cts, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(cts[:16], cts[16:32]) {
		t.Error("ciphertexts of identical plaintexts are equal: pads are not independent")
	}
}

func TestFlowErrors(t *testing.T) {
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	if err := FlowSend(a, TestGroup(), prg.NewSeeded(1), 1, [][][]byte{{{1}}}); err == nil {
		t.Error("N=1 should fail")
	}
	if err := FlowSend(a, TestGroup(), prg.NewSeeded(1), 2, [][][]byte{{{1}, {2, 3}}}); err == nil {
		t.Error("mixed lengths should fail")
	}
	go FlowSend(a, TestGroup(), prg.NewSeeded(1), 2, [][][]byte{{{1}, {2}}})
	if _, err := FlowRecv(b, prg.NewSeeded(2), 2, []int{5}, 1); err == nil {
		t.Error("out-of-range choice should fail")
	}
}

func TestDealPadConsistency(t *testing.T) {
	g := prg.NewSeeded(10)
	snd, rcv := Deal(g, 4, 50)
	for k := range snd {
		c := rcv[k].Choice
		if !bytes.Equal(Pad(snd[k].Seeds[c], 32), Pad(rcv[k].Seed, 32)) {
			t.Fatalf("instance %d: pads disagree", k)
		}
	}
	// Choices should be roughly uniform.
	counts := make([]int, 4)
	_, rcv2 := Deal(g, 4, 4000)
	for _, r := range rcv2 {
		counts[r.Choice]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("choice %d count %d of 4000", i, c)
		}
	}
}

func TestPrecomputedOnline(t *testing.T) {
	g := prg.NewSeeded(11)
	n, count := 4, 32
	snd, rcv := Deal(g, n, count)
	msgs := make([][][]byte, count)
	choices := make([]int, count)
	for k := range msgs {
		msgs[k] = make([][]byte, n)
		for l := range msgs[k] {
			m := make([]byte, 5)
			g.Read(m)
			msgs[k][l] = m
		}
		choices[k] = g.Intn(n)
	}
	var got [][]byte
	runPair(t,
		func(c transport.Conn) error { return SendPre(c, snd, n, msgs) },
		func(c transport.Conn) error {
			var err error
			got, err = RecvPre(c, rcv, n, choices, 5)
			return err
		})
	for k := range msgs {
		if !bytes.Equal(got[k], msgs[k][choices[k]]) {
			t.Fatalf("instance %d wrong message", k)
		}
	}
}

func TestPrecomputedOnlineCommCost(t *testing.T) {
	// Online traffic must be 1 byte (shift) + N·msgLen per instance —
	// that is the whole point of precomputation.
	g := prg.NewSeeded(12)
	n, count, msgLen := 2, 100, 2
	snd, rcv := Deal(g, n, count)
	msgs := make([][][]byte, count)
	choices := make([]int, count)
	for k := range msgs {
		msgs[k] = [][]byte{{1, 2}, {3, 4}}
		choices[k] = k % 2
	}
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); SendPre(a, snd, n, msgs) }()
	go func() { defer wg.Done(); RecvPre(b, rcv, n, choices, msgLen) }()
	wg.Wait()
	if got := a.Stats().BytesSent; got != uint64(count*n*msgLen) {
		t.Errorf("sender online bytes = %d, want %d", got, count*n*msgLen)
	}
	if got := b.Stats().BytesSent; got != uint64(count) {
		t.Errorf("receiver online bytes = %d, want %d", got, count)
	}
}

func TestHarvestThenOnline(t *testing.T) {
	// Full stack: real base OTs harvest random correlations, online phase
	// consumes them.
	n, count := 4, 8
	var snd []SenderInst
	var rcv []RecvInst
	runPair(t,
		func(c transport.Conn) error {
			var err error
			snd, err = HarvestSend(c, TestGroup(), prg.NewSeeded(13), n, count)
			return err
		},
		func(c transport.Conn) error {
			var err error
			rcv, err = HarvestRecv(c, prg.NewSeeded(14), n, count)
			return err
		})
	for k := range snd {
		if !bytes.Equal(snd[k].Seeds[rcv[k].Choice][:], rcv[k].Seed[:]) {
			t.Fatalf("harvested instance %d inconsistent", k)
		}
	}
	msgs := make([][][]byte, count)
	choices := make([]int, count)
	for k := range msgs {
		msgs[k] = [][]byte{{10}, {20}, {30}, {40}}
		choices[k] = (k * 3) % n
	}
	var got [][]byte
	runPair(t,
		func(c transport.Conn) error { return SendPre(c, snd, n, msgs) },
		func(c transport.Conn) error {
			var err error
			got, err = RecvPre(c, rcv, n, choices, 1)
			return err
		})
	for k := range got {
		if got[k][0] != byte(10*(choices[k]+1)) {
			t.Fatalf("instance %d: got %d", k, got[k][0])
		}
	}
}

func TestEndpointsWithDealer(t *testing.T) {
	dealer := NewDealer(prg.NewSeeded(15))
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	e0 := NewEndpoint(0, a, prg.NewSeeded(16))
	e0.Dealer = dealer
	e1 := NewEndpoint(1, b, prg.NewSeeded(17))
	e1.Dealer = dealer

	count := 2000 // force a stock refill past minChunk
	msgs := make([][][]byte, count)
	choices := make([]int, count)
	g := prg.NewSeeded(18)
	for k := range msgs {
		msgs[k] = [][]byte{{byte(k)}, {byte(k + 1)}}
		choices[k] = g.Intn(2)
	}
	var got [][]byte
	var wg sync.WaitGroup
	var errS, errR error
	wg.Add(2)
	go func() { defer wg.Done(); errS = e0.Send1ofN(2, msgs) }()
	go func() { defer wg.Done(); got, errR = e1.Recv1ofN(2, choices, 1) }()
	wg.Wait()
	if errS != nil || errR != nil {
		t.Fatal(errS, errR)
	}
	for k := range got {
		if got[k][0] != byte(k+choices[k]) {
			t.Fatalf("instance %d wrong", k)
		}
	}
	// Reverse direction must use independent correlations.
	wg.Add(2)
	go func() { defer wg.Done(); errS = e1.Send1ofN(2, msgs[:4]) }()
	go func() { defer wg.Done(); got, errR = e0.Recv1ofN(2, choices[:4], 1) }()
	wg.Wait()
	if errS != nil || errR != nil {
		t.Fatal(errS, errR)
	}
	for k := range got {
		if got[k][0] != byte(k+choices[k]) {
			t.Fatalf("reverse instance %d wrong", k)
		}
	}
}

func TestEndpointTransportFailure(t *testing.T) {
	dealer := NewDealer(prg.NewSeeded(19))
	a, b := transport.Pipe()
	b.Close() // receiver side dead
	e0 := NewEndpoint(0, transport.NewFaultyConn(a, 0, false), prg.NewSeeded(20))
	e0.Dealer = dealer
	err := e0.Send1ofN(2, [][][]byte{{{1}, {2}}})
	if !errors.Is(err, transport.ErrInjected) {
		t.Errorf("expected injected transport error, got %v", err)
	}
}

func TestGroupScalarRange(t *testing.T) {
	grp := TestGroup()
	g := prg.NewSeeded(21)
	for i := 0; i < 100; i++ {
		s := grp.RandScalar(g)
		if s.Sign() <= 0 || s.Cmp(grp.P) >= 0 {
			t.Fatal("scalar out of range")
		}
	}
	if grp.ElemBytes() != 8 {
		t.Errorf("TestGroup ElemBytes = %d", grp.ElemBytes())
	}
}

func TestDefaultGroupIsPrime(t *testing.T) {
	if testing.Short() {
		t.Skip("prime generation")
	}
	grp := DefaultGroup()
	if !grp.P.ProbablyPrime(20) {
		t.Error("DefaultGroup modulus is not prime")
	}
	if grp2 := DefaultGroup(); grp2.P.Cmp(grp.P) != 0 {
		t.Error("DefaultGroup not cached")
	}
}

func BenchmarkFlow1of4(b *testing.B) {
	msgs := make([][][]byte, 16)
	choices := make([]int, 16)
	for k := range msgs {
		msgs[k] = [][]byte{{1}, {2}, {3}, {4}}
		choices[k] = k % 4
	}
	for i := 0; i < b.N; i++ {
		a, c := transport.Pipe()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); FlowSend(a, TestGroup(), prg.NewSeeded(1), 4, msgs) }()
		go func() { defer wg.Done(); FlowRecv(c, prg.NewSeeded(2), 4, choices, 1) }()
		wg.Wait()
		a.Close()
		c.Close()
	}
}

func BenchmarkPrecomputedOnline1of4(b *testing.B) {
	g := prg.NewSeeded(1)
	count := 1024
	msgs := make([][][]byte, count)
	choices := make([]int, count)
	for k := range msgs {
		msgs[k] = [][]byte{{1}, {2}, {3}, {4}}
		choices[k] = k % 4
	}
	b.SetBytes(int64(count))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		snd, rcv := Deal(g, 4, count)
		a, c := transport.Pipe()
		b.StartTimer()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); SendPre(a, snd, 4, msgs) }()
		go func() { defer wg.Done(); RecvPre(c, rcv, 4, choices, 1) }()
		wg.Wait()
		b.StopTimer()
		a.Close()
		c.Close()
		b.StartTimer()
	}
}
