package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"aq2pnn/internal/transport"
)

// probe counts what crosses the connections one client dials: frames and
// payload bytes in each direction, the wall time spent inside Send and
// inside Recv (the time the client was blocked on its peer), and failed
// operations. It sees the raw framed connection under the session's
// multiplexer, so on a session with the preprocessing plane every frame
// carries the mux's one-byte stream prefix.
type probe struct {
	framesSent, framesRecv atomic.Uint64
	bytesSent, bytesRecv   atomic.Uint64
	sendNanos, recvNanos   atomic.Int64
	errs                   atomic.Uint64
	// dialed and firstRecv are the Unix-nanosecond instants of the first
	// dial and of the first frame received.
	dialed, firstRecv atomic.Int64
}

// firstFrame is the latency from the first dial to the first frame back:
// for a session, the provider's hello, through the gateway when there
// is one.
func (p *probe) firstFrame() time.Duration {
	return time.Duration(p.firstRecv.Load() - p.dialed.Load())
}

// probeCounts is a snapshot of a probe; deltas of two snapshots attribute
// traffic and waiting to whatever ran between them.
type probeCounts struct {
	FramesSent, FramesRecv uint64
	BytesSent, BytesRecv   uint64
	Send, Recv             time.Duration
	Errs                   uint64
}

func (p *probe) snapshot() probeCounts {
	return probeCounts{
		FramesSent: p.framesSent.Load(), FramesRecv: p.framesRecv.Load(),
		BytesSent: p.bytesSent.Load(), BytesRecv: p.bytesRecv.Load(),
		Send: time.Duration(p.sendNanos.Load()), Recv: time.Duration(p.recvNanos.Load()),
		Errs: p.errs.Load(),
	}
}

func (c probeCounts) sub(prev probeCounts) probeCounts {
	return probeCounts{
		FramesSent: c.FramesSent - prev.FramesSent, FramesRecv: c.FramesRecv - prev.FramesRecv,
		BytesSent: c.BytesSent - prev.BytesSent, BytesRecv: c.BytesRecv - prev.BytesRecv,
		Send: c.Send - prev.Send, Recv: c.Recv - prev.Recv,
		Errs: c.Errs - prev.Errs,
	}
}

func (c probeCounts) frames() uint64 { return c.FramesSent + c.FramesRecv }
func (c probeCounts) bytes() uint64  { return c.BytesSent + c.BytesRecv }

// matches reports whether the probed traffic of one inference is exactly
// the engine's own accounting of it. prefix is the per-frame overhead
// below the engine's counters: 1 under the preprocessing mux, else 0.
func (c probeCounts) matches(online transport.Stats, prefix uint64) bool {
	return c.FramesSent == online.MsgsSent && c.FramesRecv == online.MsgsRecv &&
		c.BytesSent == online.BytesSent+prefix*online.MsgsSent &&
		c.BytesRecv == online.BytesRecv+prefix*online.MsgsRecv
}

// closeControl reports whether the probed traffic is one inference plus
// the peer's one-byte close-control frame for the drained preprocessing
// substream: nothing reads the connection between the drain and the
// first warm inference, so that frame is read during an inference.
func (c probeCounts) closeControl(online transport.Stats) bool {
	c.FramesRecv--
	c.BytesRecv--
	return c.matches(online, 1)
}

// probeConn wraps a dialed connection and reports into its probe.
type probeConn struct {
	transport.Conn
	p *probe
}

func (c *probeConn) Send(payload []byte) error {
	start := time.Now()
	err := c.Conn.Send(payload)
	c.p.sendNanos.Add(int64(time.Since(start)))
	if err != nil {
		c.p.errs.Add(1)
		return err
	}
	c.p.framesSent.Add(1)
	c.p.bytesSent.Add(uint64(len(payload)))
	return nil
}

func (c *probeConn) Recv() ([]byte, error) {
	start := time.Now()
	b, err := c.Conn.Recv()
	c.p.recvNanos.Add(int64(time.Since(start)))
	if err != nil {
		c.p.errs.Add(1)
		return nil, err
	}
	c.p.framesRecv.Add(1)
	c.p.firstRecv.CompareAndSwap(0, time.Now().UnixNano())
	c.p.bytesRecv.Add(uint64(len(b)))
	return b, nil
}

// Unwrap lets the transport's deadline and budget helpers reach the
// wrapped connection, as they do through the program's own decorators.
func (c *probeConn) Unwrap() transport.Conn { return c.Conn }

// procCounts is the process-wide CPU time and Go runtime state at one
// instant. Deltas of two snapshots taken around the timed loop cover the
// loop alone.
type procCounts struct {
	CPU        time.Duration // user + system
	Mallocs    uint64
	AllocBytes uint64
	GCCycles   uint32
	GCPause    time.Duration
}

func procSnapshot() procCounts {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounts{
		CPU:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		Mallocs:    ms.Mallocs,
		AllocBytes: ms.TotalAlloc,
		GCCycles:   ms.NumGC,
		GCPause:    time.Duration(ms.PauseTotalNs),
	}
}

func (c procCounts) sub(prev procCounts) procCounts {
	return procCounts{
		CPU:        c.CPU - prev.CPU,
		Mallocs:    c.Mallocs - prev.Mallocs,
		AllocBytes: c.AllocBytes - prev.AllocBytes,
		GCCycles:   c.GCCycles - prev.GCCycles,
		GCPause:    c.GCPause - prev.GCPause,
	}
}

// measure runs f and returns its wall time and the process deltas over
// exactly that call.
func measure(f func()) (time.Duration, procCounts) {
	before := procSnapshot()
	start := time.Now()
	f()
	wall := time.Since(start)
	return wall, procSnapshot().sub(before)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark from
// the current resident set (clear_refs code 5, Linux 4.0 and later), so
// that peakRSSMiB covers what runs after it. A peak taken over every
// inference window and reported as the median is steadier than one peak
// over a run, which depends on where garbage collections happened to
// fall.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the resident-set high-water mark, VmHWM.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kib / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// percentile is the nearest-rank percentile of the samples in
// milliseconds: the smallest sample with at least p·n samples at or below
// it, index ⌈p·n⌉−1 of the sorted samples. ok is false when fewer than
// ten samples lie beyond that rank, the least a tail figure needs.
func percentile(samples []time.Duration, p float64) (ms float64, ok bool) {
	if len(samples) == 0 {
		return 0, false
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	rank = min(max(rank, 0), len(sorted)-1)
	return float64(sorted[rank]) / float64(time.Millisecond), len(sorted)-1-rank >= 10
}

// median is the nearest-rank median; a median needs no tail samples.
func median(samples []time.Duration) float64 {
	ms, _ := percentile(samples, 0.5)
	return ms
}
