package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/transport"
)

// Versioned session handshake. Before any setup material crosses the
// wire, both parties exchange a fixed 20-byte hello describing the
// protocol version, their role, the model architecture fingerprint, the
// carrier ring width and the protocol flags. (The OT group is announced
// in-band by each OT-flow header — the receiver adopts the sender's
// group — so it is deliberately absent here.) Any
// disagreement that would previously surface as a garbled gob decode, a
// mid-protocol length mismatch or — worst — a silently wrong reveal now
// fails fast with a typed *HandshakeError naming the offending field on
// BOTH parties.

// ProtocolVersion is the wire protocol generation. Bump it whenever the
// session wire format changes incompatibly (generation 1 introduced this
// handshake and the chunked setup exchange; generation 2 added per-chunk
// subheaders to the setup exchange and the busy-reject frame; generation
// 3 added the persistent-session mode — attach/resume frames, per-seq
// inference requests — plus in-hello negotiation of the ABReLU ring width
// and the class-only reveal; generation 4 added the preprocessing plane —
// the multiplexed fill stream, the demand/ack subprotocol and the warm
// inference request; generation 5 replaced gob with the flat share codec;
// generation 6 derives every OT pad and extended correlation with the
// fixed-key AES hash of internal/ot, which changes the pad values while
// leaving wire lengths and rounds as they were).
const ProtocolVersion = 6

// helloMagic opens every hello frame. A peer speaking the pre-handshake
// protocol (or not speaking this protocol at all) sends something else as
// its first frame, which decodeHello rejects with a clear error instead
// of letting gob chew on it.
var helloMagic = [4]byte{'A', 'Q', '2', 'S'}

const helloLen = 20

// busyMagic opens the load-shedding reject frame a provider sends in
// place of its hello when the admission limit is reached. The client's
// decodeHello maps it onto transport.ErrServerBusy — transient, so the
// standard retry/backoff loop re-attempts once a slot may have freed.
var busyMagic = [4]byte{'A', 'Q', '2', 'B'}

const busyLen = 8

// busyFrame encodes the shed rejection: magic plus the server's protocol
// version (so a future generation can change the busy wire format too).
func busyFrame() []byte {
	p := make([]byte, busyLen)
	copy(p, busyMagic[:])
	binary.LittleEndian.PutUint16(p[4:], ProtocolVersion)
	return p
}

// shedReadTimeout bounds each read of a turned-away client's opening
// frames, and how long a client whose opening write failed waits for the
// answer already on its way.
const shedReadTimeout = time.Second

// RejectBusy turns a connection away under load: it reads the client's
// opening frames — the hello and, for a persistent session, the attach
// request pipelined behind it — then sends the busy frame. The caller
// closes conn. Reading first matters: closing a socket with unread bytes
// in its receive buffer resets the connection, and the reset can destroy
// the busy frame before the client reads it, leaving the client a broken
// pipe instead of transport.ErrServerBusy. The reads are best-effort; a
// client that sends nothing or garbage still gets the frame.
func RejectBusy(conn transport.Conn) error {
	if p, err := recvOpening(conn, helloLen); err == nil {
		if h, err := decodeHello(p); err == nil && h.Flags&flagSession != 0 {
			_, _ = recvOpening(conn, attachLen)
		}
	}
	return conn.Send(busyFrame())
}

// errNoRecvDeadline is recvOpening's answer on transports without
// receive deadlines.
var errNoRecvDeadline = errors.New("engine: transport has no receive deadline")

// recvOpening reads one opening frame of a client that is being turned
// away, under a short deadline and a size cap. Transports without receive
// deadlines (in-memory pipes) skip the read: no kernel reset races there,
// and a silent peer must not pin the caller.
func recvOpening(conn transport.Conn, limit uint32) ([]byte, error) {
	if !transport.SetRecvDeadline(conn, time.Now().Add(shedReadTimeout)) {
		return nil, errNoRecvDeadline
	}
	defer transport.SetRecvDeadline(conn, time.Time{})
	return transport.RecvCapped(conn, limit)
}

// openingSendError reports a failed write of the client's opening frames
// (what names the frame). A server that turned the client away — busy,
// or with a hello that fails the checks — and closed before the write
// landed leaves its answer in our receive buffer: one bounded read
// recovers it, so the caller still gets the typed transport.ErrServerBusy
// or *HandshakeError rather than a broken pipe.
func openingSendError(conn transport.Conn, mine sessionHello, what string, err error) error {
	if transport.SetRecvDeadline(conn, time.Now().Add(shedReadTimeout)) {
		defer transport.SetRecvDeadline(conn, time.Time{})
		if p, rerr := conn.Recv(); rerr == nil {
			peer, herr := decodeHello(p)
			if herr == nil {
				herr = checkHello(mine, peer)
			}
			if herr != nil {
				return herr
			}
		}
	}
	return fmt.Errorf("engine: sending session %s: %w", what, err)
}

// Protocol flag bits. Flags cover every Options field that changes the
// wire transcript: parties disagreeing on one of these would desynchronise
// mid-protocol.
const (
	flagLocalTrunc  = 1 << 0
	flagNoExtension = 1 << 1
	// flagClassOnly selects the class-only reveal (secure argmax instead
	// of the logit reveal). It changes the online transcript, so both
	// parties must run the same flow; the serving path adopts the
	// client's choice (what the user learns is the user's knob).
	flagClassOnly = 1 << 2
	// flagSession requests the persistent-session flow: attach/resume
	// exchange after the hello, then a stream of per-seq inference
	// requests over the prepared state. The serving path mirrors it.
	flagSession = 1 << 3
	// flagPreproc requests the asynchronous preprocessing plane on top of
	// a persistent session: immediately after the attach exchange both
	// parties multiplex the connection into a main stream and a
	// preprocessing stream, and paired background fillers pre-generate
	// each inference's triple kits over the latter (internal/preproc).
	// The serving path adopts the client's choice, like flagSession.
	flagPreproc = 1 << 4
)

// Handshake roles.
const (
	roleUser     = 0
	roleProvider = 1
)

// sessionHello is one party's view of the session parameters.
type sessionHello struct {
	Version uint16
	Role    uint8
	Flags   uint8
	Carrier uint16
	// ABReLU is the contracted ABReLU ring width (0 = full carrier). It
	// changes the A2BM/SCM transcript, so both parties must agree.
	ABReLU uint8
	Model  uint64 // nn.Model architecture fingerprint
}

// HandshakeError reports a handshake failure: a session-parameter
// disagreement, a malformed hello frame, or a hello that never arrived
// within the handshake deadline. Field names the mismatching parameter
// (or the violated framing rule); Local and Peer carry the two numeric
// views. Mismatches and malformed frames are permanent — retrying cannot
// fix a misconfigured (or hostile) peer — and transport.IsTransient
// classifies them accordingly; a hello *timeout* carries its cause in
// Err and stays transient through it.
type HandshakeError struct {
	Field       string
	Local, Peer uint64
	// Err, when non-nil, is the underlying transport failure (e.g. the
	// idle-timeout that cut short a stalled hello read).
	Err error
}

func (e *HandshakeError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("engine: handshake %s: %v", e.Field, e.Err)
	}
	return fmt.Sprintf("engine: handshake %s mismatch: local %#x, peer %#x",
		e.Field, e.Local, e.Peer)
}

func (e *HandshakeError) Unwrap() error { return e.Err }

// helloFor assembles this party's hello from the resolved session
// parameters.
func helloFor(role uint8, m *nn.Model, r ring.Ring, cfg Options) sessionHello {
	var flags uint8
	if cfg.LocalTrunc {
		flags |= flagLocalTrunc
	}
	if cfg.NoExtension {
		flags |= flagNoExtension
	}
	if cfg.RevealClassOnly {
		flags |= flagClassOnly
	}
	// An ABReLU width at or past the carrier is a no-op (runReLU keeps the
	// full ring), so it is normalised to 0 here — peers configured with
	// "no contraction" and "contraction wider than the carrier" agree.
	abrelu := uint8(0)
	if cfg.ABReLUBits != 0 && cfg.ABReLUBits < r.Bits {
		abrelu = uint8(cfg.ABReLUBits)
	}
	return sessionHello{
		Version: ProtocolVersion,
		Role:    role,
		Flags:   flags,
		Carrier: uint16(r.Bits),
		ABReLU:  abrelu,
		Model:   m.Fingerprint(),
	}
}

func (h sessionHello) encode() []byte {
	p := make([]byte, helloLen)
	copy(p, helloMagic[:])
	binary.LittleEndian.PutUint16(p[4:], h.Version)
	p[6] = h.Role
	p[7] = h.Flags
	binary.LittleEndian.PutUint16(p[8:], h.Carrier)
	p[10] = h.ABReLU
	// p[11] reserved (zero) for future extension.
	binary.LittleEndian.PutUint64(p[12:], h.Model)
	return p
}

func decodeHello(p []byte) (sessionHello, error) {
	var h sessionHello
	if len(p) >= len(busyMagic) && [4]byte(p[:4]) == busyMagic {
		return h, fmt.Errorf("engine: provider shed this session under load: %w",
			transport.ErrServerBusy)
	}
	// Strict framing: exactly helloLen bytes, opening with the magic. A
	// truncated hello and one carrying trailing garbage are equally
	// rejected — a peer that pads its hello is not speaking this protocol.
	if len(p) != helloLen {
		return h, &HandshakeError{Field: "hello frame length", Local: helloLen, Peer: uint64(len(p))}
	}
	if [4]byte(p[:4]) != helloMagic {
		return h, &HandshakeError{
			Field: "hello magic",
			Local: uint64(binary.LittleEndian.Uint32(helloMagic[:])),
			Peer:  uint64(binary.LittleEndian.Uint32(p[:4])),
		}
	}
	h.Version = binary.LittleEndian.Uint16(p[4:])
	h.Role = p[6]
	h.Flags = p[7]
	h.Carrier = binary.LittleEndian.Uint16(p[8:])
	h.ABReLU = p[10]
	h.Model = binary.LittleEndian.Uint64(p[12:])
	return h, nil
}

// checkHello verifies the peer's session parameters against ours,
// producing the same typed *HandshakeError both parties compute from
// their own (mine, peer) view.
func checkHello(mine, peer sessionHello) error {
	switch {
	case peer.Version != mine.Version:
		return &HandshakeError{Field: "protocol version", Local: uint64(mine.Version), Peer: uint64(peer.Version)}
	case peer.Role == mine.Role:
		return &HandshakeError{Field: "role", Local: uint64(mine.Role), Peer: uint64(peer.Role)}
	case peer.Model != mine.Model:
		return &HandshakeError{Field: "model fingerprint", Local: mine.Model, Peer: peer.Model}
	case peer.Carrier != mine.Carrier:
		return &HandshakeError{Field: "carrier ring width", Local: uint64(mine.Carrier), Peer: uint64(peer.Carrier)}
	case peer.ABReLU != mine.ABReLU:
		return &HandshakeError{Field: "abrelu ring width", Local: uint64(mine.ABReLU), Peer: uint64(peer.ABReLU)}
	case peer.Flags != mine.Flags:
		return &HandshakeError{Field: "protocol flags", Local: uint64(mine.Flags), Peer: uint64(peer.Flags)}
	}
	return nil
}

// exchangeHello sends this party's hello, receives the peer's, and
// verifies every session parameter. Both parties send before receiving
// (the transports buffer a frame, so the symmetric order cannot
// deadlock), and both run identical checks, so a mismatch produces the
// same typed error on each side instead of one party erroring and the
// other hanging.
//
// A positive timeout bounds the hello read on transports that support
// receive deadlines: a peer that connects and sends three bytes then
// stalls fails fast with a typed *HandshakeError instead of pinning the
// session goroutine forever. In-memory pipes ignore the timeout.
func exchangeHello(conn transport.Conn, mine sessionHello, timeout time.Duration) error {
	if err := conn.Send(mine.encode()); err != nil {
		return openingSendError(conn, mine, "hello", err)
	}
	if timeout > 0 && transport.SetRecvDeadline(conn, time.Now().Add(timeout)) {
		defer transport.SetRecvDeadline(conn, time.Time{})
	}
	p, err := conn.Recv()
	if err != nil {
		if errors.Is(err, transport.ErrIdleTimeout) {
			return &HandshakeError{Field: "hello read", Err: err}
		}
		return fmt.Errorf("engine: receiving session hello: %w", err)
	}
	peer, err := decodeHello(p)
	if err != nil {
		return err
	}
	return checkHello(mine, peer)
}
