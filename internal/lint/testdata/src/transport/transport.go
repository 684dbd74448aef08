// Package transport is a miniature mimic of aq2pnn/internal/transport for
// analyzer testdata (matched by package name, the Conn type name and the
// helper function names).
package transport

import "context"

type Conn interface {
	Send(p []byte) error
	Recv() ([]byte, error)
	Close() error
}

// Stats mirrors the traffic ledger: uint64 counters that are public
// metric metadata by definition, never share words.
type Stats struct {
	BytesSent uint64
	BytesRecv uint64
	Rounds    uint64
}

func SendElems(c Conn, xs []uint64) error              { return c.Send(nil) }
func RecvElems(c Conn, n int) ([]uint64, error)        { return nil, nil }
func SendBytes(c Conn, p []byte) error                 { return c.Send(p) }
func RecvBytes(c Conn) ([]byte, error)                 { return c.Recv() }
func RecvCapped(c Conn, limit uint32) ([]byte, error)  { return c.Recv() }
func Exchange(c Conn, mine []uint64) ([]uint64, error) { return nil, nil }

func Dial(addr string) (Conn, error) { return DialContext(context.Background(), addr) }

func DialContext(ctx context.Context, addr string) (Conn, error) { return nil, nil }
