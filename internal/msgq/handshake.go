package msgq

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"numastream/internal/trace"
)

// The handshake. Every connection opens with one before any frame flows:
// the Pull writes its hello banner immediately after accept, the Push
// reads it and answers with its own, then the Pull runs a clock-offset
// probe. A peer whose first bytes are not a hello of version ≥ 2 — a
// frame, garbage, or nothing at all within handshakeGuard — is hung up
// on, and the Pull counts it in ReadErrors.
//
// The clock-offset probe runs inside every handshake — including every
// redial, so the estimate re-samples when a connection is rebuilt. The
// Pull drives it: it sends pings carrying its own monotonic-epoch
// timestamp, the Push echoes each with its monotonic-epoch send time,
// and the Pull keeps the midpoint estimate from the round with the
// smallest RTT:
//
//	offset = t_push − (t_ping + t_pong)/2   (push clock − pull clock)
//
// The error of the surviving sample is bounded by half its RTT, which on
// the LAN/loopback paths this runtime targets is microseconds — far
// below the millisecond-scale stage latencies the merged journeys are
// read for.
const (
	// ProtoVersion is the protocol version this build speaks.
	ProtoVersion = 2

	// maxLabelLen bounds the advertised peer label.
	maxLabelLen = 256

	// probeRounds is the number of ping/pong clock samples per
	// handshake.
	probeRounds = 4
)

// handshakeGuard bounds a whole handshake on either side, from accept or
// dial to the last probe byte, so a peer that stalls — or never speaks
// at all — cannot park a goroutine forever. A variable only so tests can
// shorten it.
var handshakeGuard = 5 * time.Second

// helloMagic opens every hello banner.
var helloMagic = [4]byte{'N', 'S', 'Q', 'H'}

// auxFlag marks a frame whose last part is auxiliary metadata rather
// than an application part.
const auxFlag = uint32(1) << 31

// Probe opcodes (Pull → Push direction for ping/done, Push → Pull for
// pong).
const (
	opPing = 0x01
	opPong = 0x02
	opDone = 0x03
)

// peerState is what a completed handshake learned about the remote end.
type peerState struct {
	label  string
	offset time.Duration // remote clock − local clock (midpoint estimate)
	rtt    time.Duration // RTT of the winning probe sample
}

// writeHello writes one hello banner: magic, speaker's version, label.
func writeHello(w io.Writer, label string) error {
	if len(label) > maxLabelLen {
		label = label[:maxLabelLen]
	}
	buf := make([]byte, 0, 8+len(label))
	buf = append(buf, helloMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, ProtoVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(label)))
	buf = append(buf, label...)
	_, err := w.Write(buf)
	return err
}

// readHello reads one hello banner and returns the peer's label. Anything
// that is not a hello of version ≥ 2 is an error. A peer that closes
// before sending a byte yields a bare io.EOF.
func readHello(r io.Reader) (string, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return "", err
	}
	if [4]byte(hdr[:4]) != helloMagic {
		return "", fmt.Errorf("msgq: hello has bad magic %q", hdr[:4])
	}
	version := binary.LittleEndian.Uint16(hdr[4:])
	n := binary.LittleEndian.Uint16(hdr[6:])
	if version < 2 {
		return "", fmt.Errorf("msgq: hello with version %d, need ≥ 2", version)
	}
	if n > maxLabelLen {
		return "", fmt.Errorf("msgq: hello label of %d bytes exceeds limit", n)
	}
	lb := make([]byte, n)
	if _, err := io.ReadFull(r, lb); err != nil {
		return "", err
	}
	return string(lb), nil
}

// serverHandshake runs the accept-side handshake on conn. The hello
// write happens before any read, so the dialer never waits on us.
func serverHandshake(conn net.Conn, label string) (peerState, error) {
	conn.SetDeadline(time.Now().Add(handshakeGuard))
	defer conn.SetDeadline(time.Time{})
	if err := writeHello(conn, label); err != nil {
		return peerState{}, err
	}
	theirLabel, err := readHello(conn)
	if err != nil {
		if err == io.EOF {
			return peerState{}, err // closed without a word: not a framing error
		}
		return peerState{}, fmt.Errorf("msgq: client hello: %w", err)
	}
	ps := peerState{label: theirLabel}

	// Clock-offset probe: keep the minimum-RTT sample.
	var ping [9]byte
	var pong [17]byte
	for i := 0; i < probeRounds; i++ {
		t0 := trace.NowNanos()
		ping[0] = opPing
		binary.LittleEndian.PutUint64(ping[1:], uint64(t0))
		if _, err := conn.Write(ping[:]); err != nil {
			return peerState{}, fmt.Errorf("msgq: clock probe ping: %w", err)
		}
		if _, err := io.ReadFull(conn, pong[:]); err != nil {
			return peerState{}, fmt.Errorf("msgq: clock probe pong: %w", err)
		}
		t1 := trace.NowNanos()
		if pong[0] != opPong {
			return peerState{}, fmt.Errorf("msgq: clock probe got op 0x%02x, want pong", pong[0])
		}
		if echo := int64(binary.LittleEndian.Uint64(pong[1:])); echo != t0 {
			return peerState{}, fmt.Errorf("msgq: clock probe echo mismatch")
		}
		ts := int64(binary.LittleEndian.Uint64(pong[9:]))
		rtt := time.Duration(t1 - t0)
		if i == 0 || rtt < ps.rtt {
			ps.rtt = rtt
			ps.offset = time.Duration(ts - (t0+t1)/2)
		}
	}
	if _, err := conn.Write([]byte{opDone}); err != nil {
		return peerState{}, fmt.Errorf("msgq: clock probe done: %w", err)
	}
	return ps, nil
}

// clientHandshake runs the dial-side handshake on conn. The guard is a
// read deadline only: the write deadline belongs to Push.WriteTimeout,
// and the handshake's writes — a hello and a few 17-byte pongs — go
// into an empty send buffer and cannot wait.
func clientHandshake(conn net.Conn, label string) error {
	conn.SetReadDeadline(time.Now().Add(handshakeGuard))
	defer conn.SetReadDeadline(time.Time{})
	if _, err := readHello(conn); err != nil {
		return fmt.Errorf("msgq: server hello: %w", err)
	}
	if err := writeHello(conn, label); err != nil {
		return fmt.Errorf("msgq: client hello: %w", err)
	}

	// Answer the server's clock probe until it signals done. The round
	// bound guards against a peer that pings forever.
	var op [1]byte
	var body [8]byte
	var pong [17]byte
	for i := 0; i <= 4*probeRounds; i++ {
		if _, err := io.ReadFull(conn, op[:]); err != nil {
			return fmt.Errorf("msgq: clock probe: %w", err)
		}
		switch op[0] {
		case opDone:
			return nil
		case opPing:
			if _, err := io.ReadFull(conn, body[:]); err != nil {
				return fmt.Errorf("msgq: clock probe ping: %w", err)
			}
			pong[0] = opPong
			copy(pong[1:9], body[:])
			binary.LittleEndian.PutUint64(pong[9:], uint64(trace.NowNanos()))
			if _, err := conn.Write(pong[:]); err != nil {
				return fmt.Errorf("msgq: clock probe pong: %w", err)
			}
		default:
			return fmt.Errorf("msgq: clock probe got op 0x%02x", op[0])
		}
	}
	return fmt.Errorf("msgq: clock probe never finished")
}
