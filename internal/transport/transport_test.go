package transport

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
)

// mustSend / mustRecv fail the test on a transport error, keeping the
// sendcheck invariant (no dropped transport errors) in the tests too.
func mustSend(t testing.TB, c Conn, p []byte) {
	t.Helper()
	if err := c.Send(p); err != nil {
		t.Fatalf("send: %v", err)
	}
}

func mustRecv(t testing.TB, c Conn) []byte {
	t.Helper()
	p, err := c.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	return p
}

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	msg := []byte("hello 2pc")
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestPipeCopiesPayload(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	msg := []byte{1, 2, 3}
	mustSend(t, a, msg)
	msg[0] = 99 // mutate after send
	got := mustRecv(t, b)
	if got[0] != 1 {
		t.Error("Send did not copy the payload")
	}
}

func TestPipeStatsAndRounds(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	mustSend(t, a, make([]byte, 10))
	mustSend(t, a, make([]byte, 20))
	mustRecv(t, b)
	mustRecv(t, b)
	mustSend(t, b, make([]byte, 5))
	mustRecv(t, a)
	sa, sb := a.Stats(), b.Stats()
	if sa.BytesSent != 30 || sa.MsgsSent != 2 || sa.BytesRecv != 5 {
		t.Errorf("a stats %+v", sa)
	}
	if sa.Rounds != 1 { // a: send,send,recv → one direction change
		t.Errorf("a rounds = %d", sa.Rounds)
	}
	if sb.Rounds != 0 { // b only receives then sends
		t.Errorf("b rounds = %d", sb.Rounds)
	}
	if sa.MiB() <= 0 {
		t.Error("MiB should be positive")
	}
	a.ResetStats()
	if a.Stats().TotalBytes() != 0 {
		t.Error("ResetStats did not zero")
	}
}

func TestPipeCloseUnblocks(t *testing.T) {
	a, b := Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Recv after peer close = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on peer close")
	}
	if err := a.Send([]byte{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send on closed conn = %v", err)
	}
}

func TestPackUnpackWidths(t *testing.T) {
	g := prg.NewSeeded(1)
	for _, bits := range []uint{8, 12, 16, 24, 32, 48} {
		r := ring.New(bits)
		xs := g.Elems(100, r)
		p := PackElems(r, xs)
		if len(p) != 100*r.Bytes() {
			t.Errorf("ℓ=%d: packed %d bytes, want %d", bits, len(p), 100*r.Bytes())
		}
		got, err := UnpackElems(r, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if got[i] != xs[i] {
				t.Fatalf("ℓ=%d: element %d mismatch", bits, i)
			}
		}
	}
}

func TestUnpackRejectsBadLength(t *testing.T) {
	r := ring.New(16)
	if _, err := UnpackElems(r, make([]byte, 5)); err == nil {
		t.Error("expected length error")
	}
}

func TestPackQuick(t *testing.T) {
	r := ring.New(14)
	f := func(raw []uint64) bool {
		xs := make([]uint64, len(raw))
		for i := range raw {
			xs[i] = r.Reduce(raw[i])
		}
		got, err := UnpackElems(r, PackElems(r, xs))
		if err != nil || len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if got[i] != xs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExchangeOpen(t *testing.T) {
	r := ring.New(16)
	g := prg.NewSeeded(2)
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	x := g.Elems(32, r)
	y := g.Elems(32, r)
	var got0, got1 []uint64
	var err0, err1 error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); got0, err0 = ExchangeOpen(a, r, 0, x) }()
	go func() { defer wg.Done(); got1, err1 = ExchangeOpen(b, r, 1, y) }()
	wg.Wait()
	if err0 != nil || err1 != nil {
		t.Fatal(err0, err1)
	}
	for i := range x {
		want := r.Add(x[i], y[i])
		if got0[i] != want || got1[i] != want {
			t.Fatalf("exchange open mismatch at %d", i)
		}
	}
}

func TestRecvElemsLengthCheck(t *testing.T) {
	r := ring.New(8)
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	SendElems(a, r, []uint64{1, 2, 3})
	if _, err := RecvElems(b, r, 5); err == nil {
		t.Error("expected element-count error")
	}
}

// TestRecvCapped: a frame within the cap arrives intact; on a socket, a
// longer declared length fails as a *FrameError from the header alone,
// before the peer has sent any of the body; on a pipe the length is
// checked after the receive.
func TestRecvCapped(t *testing.T) {
	sa, sb := net.Pipe()
	a, b := NewNetConn(sa), NewNetConn(sb)
	defer a.Close()
	defer b.Close()
	sent := make(chan error, 1)
	go func() {
		if err := a.Send([]byte("hello")); err != nil {
			sent <- err
			return
		}
		// Only the header of an oversized frame: net.Pipe is unbuffered,
		// so a receiver that waited for the body would block forever.
		_, err := sa.Write([]byte{0, 0, 1, 0})
		sent <- err
	}()
	if p, err := RecvCapped(b, 5); err != nil || string(p) != "hello" {
		t.Fatalf("frame within the cap: %q, %v", p, err)
	}
	var fe *FrameError
	if _, err := RecvCapped(b, 5); !errors.As(err, &fe) || fe.Declared != 1<<16 || fe.Limit != 5 {
		t.Fatalf("oversized socket frame: %v, want *FrameError declaring 65536 over 5", err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}

	pa, pb := Pipe()
	defer pa.Close()
	defer pb.Close()
	if err := pa.Send(make([]byte, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := RecvCapped(pb, 8); !errors.As(err, &fe) || fe.Declared != 9 {
		t.Fatalf("oversized pipe frame: %v, want *FrameError declaring 9", err)
	}
}

func TestTCPConn(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	var server Conn
	done := make(chan struct{})
	go func() {
		c, err := l.Accept()
		if err == nil {
			server = NewNetConn(c)
		}
		close(done)
	}()
	client, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	l.Close()
	defer client.Close()
	defer server.Close()

	r := ring.New(24)
	g := prg.NewSeeded(3)
	xs := g.Elems(500, r)
	if err := SendElems(client, r, xs); err != nil {
		t.Fatal(err)
	}
	got, err := RecvElems(server, r, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatal("TCP round trip mismatch")
		}
	}
	// Empty frame.
	if err := server.Send(nil); err != nil {
		t.Fatal(err)
	}
	p, err := client.Recv()
	if err != nil || len(p) != 0 {
		t.Fatalf("empty frame: %v %v", p, err)
	}
	if client.Stats().BytesSent != uint64(500*r.Bytes()) {
		t.Errorf("client bytes sent = %d", client.Stats().BytesSent)
	}
}

func TestNetworkModel(t *testing.T) {
	m := GigabitLAN()
	// 1 MiB at 1 Gbps ≈ 8.39 ms, plus 2 rounds × 200 µs.
	d := m.Time(1<<20, 2)
	if d < 8*time.Millisecond || d > 10*time.Millisecond {
		t.Errorf("1 MiB + 2 rounds = %v", d)
	}
	if (NetworkModel{}).Time(1<<20, 5) != 0 {
		t.Error("zero model should cost nothing")
	}
	s := Stats{BytesSent: 1 << 20, Rounds: 2}
	if m.TimeForStats(s) != d {
		t.Error("TimeForStats mismatch")
	}
}

func TestFaultyConn(t *testing.T) {
	a, b := Pipe()
	defer b.Close()
	f := NewFaultyConn(a, 2, false)
	if err := f.Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Send([]byte{2}); err != nil {
		t.Fatal(err)
	}
	if err := f.Send([]byte{3}); !errors.Is(err, ErrInjected) {
		t.Errorf("third op = %v, want injected fault", err)
	}
	if _, err := f.Recv(); !errors.Is(err, ErrInjected) {
		t.Errorf("recv after budget = %v", err)
	}
}

func TestFaultyConnCorruption(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	f := NewFaultyConn(b, 1, true)
	mustSend(t, a, []byte{0, 0, 0})
	p, err := f.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if p[1] != 0xFF {
		t.Error("corruption not applied on final op")
	}
}

func BenchmarkPipeSendRecv(b *testing.B) {
	x, y := Pipe()
	defer x.Close()
	defer y.Close()
	payload := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		mustSend(b, x, payload)
		mustRecv(b, y)
	}
}

func BenchmarkPackElems16(b *testing.B) {
	r := ring.New(16)
	g := prg.NewSeeded(1)
	xs := g.Elems(4096, r)
	b.SetBytes(int64(len(xs) * r.Bytes()))
	for i := 0; i < b.N; i++ {
		PackElems(r, xs)
	}
}
