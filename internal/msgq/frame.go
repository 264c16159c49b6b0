package msgq

// Receive path: every incoming frame is handed to the consumer as a
// Frame. When a Pull has a buffer pool attached (SetBufferPool), the
// frame's part buffers are rented from the pool instead of allocated,
// and the Frame must be Released once the payload bytes are done with.
// This is the receiver half of the zero-allocation hot path: at a steady
// state every frame reuses the previous frames' buffers and the read
// loop stops generating garbage at wire rate.

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"numastream/internal/bufpool"
)

// Frame is one received message whose part buffers may be leased from
// a buffer pool. Msg/Aux return views into those buffers; they are
// valid until Release, which returns every buffer to its pool and
// recycles the Frame itself. Release panics on a second call — after
// the first, the buffers may already back a different frame, and a
// double release is how two frames end up aliasing one buffer.
type Frame struct {
	bufs     []*bufpool.Buf
	msg      Message
	aux      []byte
	released atomic.Bool
}

// framePool recycles Frame shells (the bufs/msg slice headers), so the
// pooled read path allocates nothing per frame at steady state.
var framePool = sync.Pool{New: func() any { return &Frame{} }}

// Msg returns the application parts. Valid until Release.
func (f *Frame) Msg() Message { return f.msg }

// Aux returns the auxiliary part, nil if the frame carried none. Valid
// until Release.
func (f *Frame) Aux() []byte { return f.aux }

// Release returns the frame's part buffers to their pool and the Frame
// to the frame pool. Safe on a nil Frame, so a holder whose frame may
// already have been handed back can release unconditionally.
func (f *Frame) Release() {
	if f == nil {
		return
	}
	if !f.released.CompareAndSwap(false, true) {
		panic("msgq: double Release of Frame")
	}
	for i, b := range f.bufs {
		b.Release()
		f.bufs[i] = nil
	}
	f.bufs = f.bufs[:0]
	// Clear to cap: the aux entry sits past len after the hasAux
	// truncation in readFrame.
	clearMsg := f.msg[:cap(f.msg)]
	for i := range clearMsg {
		clearMsg[i] = nil
	}
	f.msg = f.msg[:0]
	f.aux = nil
	framePool.Put(f)
}

// readFrame deserializes one frame from r, renting its part buffers
// from pool on behalf of domain (a nil pool allocates them). A part
// count carrying auxFlag means the frame's last part is auxiliary
// metadata, returned by Aux rather than Msg. The returned Frame owns
// the leases; a mid-frame error releases whatever was already rented.
func readFrame(r io.Reader, pool *bufpool.Pool, domain int) (*Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	hasAux := n&auxFlag != 0
	limit := uint32(MaxParts)
	if hasAux {
		n &^= auxFlag
		if n == 0 {
			return nil, fmt.Errorf("msgq: aux-flagged message with no parts")
		}
		limit++ // the aux part rides above the application-part limit
	}
	if n > limit {
		return nil, fmt.Errorf("msgq: message with %d parts exceeds limit", n)
	}
	f := framePool.Get().(*Frame)
	f.released.Store(false)
	fail := func(err error) (*Frame, error) {
		f.Release()
		return nil, err
	}
	for i := uint32(0); i < n; i++ {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return fail(err)
		}
		size := binary.LittleEndian.Uint32(hdr[:])
		if size > MaxPartSize {
			return fail(fmt.Errorf("msgq: part of %d bytes exceeds limit", size))
		}
		b := pool.Get(domain, int(size))
		f.bufs = append(f.bufs, b)
		if _, err := io.ReadFull(r, b.Bytes()); err != nil {
			return fail(err)
		}
		f.msg = append(f.msg, b.Bytes())
	}
	if hasAux {
		f.aux = f.msg[len(f.msg)-1]
		f.msg = f.msg[:len(f.msg)-1]
	}
	return f, nil
}
