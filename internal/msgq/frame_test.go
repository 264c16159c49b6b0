package msgq

import (
	"bytes"
	"io"
	"testing"

	"numastream/internal/bufpool"
)

// frameCase is one frame shape exercised by both the equivalence test
// and the fuzz seed corpus.
type frameCase struct {
	name string
	msg  Message
	aux  []byte
}

func frameCases() []frameCase {
	big := make([]byte, 70000)
	for i := range big {
		big[i] = byte(i * 31)
	}
	return []frameCase{
		{"zero-part", Message{}, nil},
		{"one-part", Message{[]byte("hello")}, nil},
		{"header-payload", Message{[]byte{1, 2, 3, 4}, big}, nil},
		{"empty-part", Message{{}, []byte("x")}, nil},
		{"all-empty-parts", Message{{}, {}, {}}, nil},
		{"aux-only-part", Message{}, []byte("trace-ctx")},
		{"aux-with-parts", Message{[]byte("hdr"), big}, bytes.Repeat([]byte{0xAB}, 53)},
		{"aux-empty-msg-part", Message{{}}, []byte{0}},
		{"many-parts", func() Message {
			var m Message
			for i := 0; i < MaxParts; i++ {
				m = append(m, []byte{byte(i)})
			}
			return m
		}(), []byte("full-house")},
	}
}

// referenceBytes serializes via the scalar reference writer.
func referenceBytes(t testing.TB, c frameCase) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeMessage(&buf, c.msg, c.aux); err != nil {
		t.Fatalf("reference writer: %v", err)
	}
	return buf.Bytes()
}

// TestWriteVectoredEquivalence diffs the vectored writer against the
// scalar reference implementation byte for byte, including scratch
// reuse across frames on one connection.
func TestWriteVectoredEquivalence(t *testing.T) {
	pc := &pushConn{} // one conn: scratch persists across subtests
	for _, c := range frameCases() {
		t.Run(c.name, func(t *testing.T) {
			want := referenceBytes(t, c)
			var got bytes.Buffer
			if err := pc.writeVectored(&got, c.msg, c.aux); err != nil {
				t.Fatalf("writeVectored: %v", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("wire bytes differ:\n got %x\nwant %x", got.Bytes(), want)
			}
			// And the frame must read back intact, unpooled and pooled.
			for _, pool := range []*bufpool.Pool{nil, bufpool.New(1)} {
				f, err := readFrame(bytes.NewReader(got.Bytes()), pool, 0)
				if err != nil {
					t.Fatalf("readFrame (pool %v): %v", pool != nil, err)
				}
				assertFrameEqual(t, "readFrame", f.Msg(), f.Aux(), c)
				f.Release()
				if n := pool.Outstanding(); n != 0 {
					t.Errorf("pool outstanding = %d after Release", n)
				}
			}
		})
	}
}

func assertFrameEqual(t *testing.T, path string, msg Message, aux []byte, c frameCase) {
	t.Helper()
	if len(msg) != len(c.msg) {
		t.Fatalf("%s: %d parts, want %d", path, len(msg), len(c.msg))
	}
	for i := range msg {
		if !bytes.Equal(msg[i], c.msg[i]) {
			t.Errorf("%s: part %d = %x, want %x", path, i, msg[i], c.msg[i])
		}
	}
	wantAux := c.aux
	if !bytes.Equal(aux, wantAux) {
		t.Errorf("%s: aux = %x, want %x", path, aux, wantAux)
	}
}

func TestWriteVectoredLimits(t *testing.T) {
	pc := &pushConn{}
	var sink bytes.Buffer
	over := make(Message, MaxParts+1)
	for i := range over {
		over[i] = []byte{1}
	}
	if err := pc.writeVectored(&sink, over, nil); err == nil {
		t.Error("MaxParts overflow not rejected")
	}
}

// TestWriteVectoredScratchReuse pins the zero-allocation property of
// the send path: after warm-up, serializing a frame allocates nothing.
func TestWriteVectoredScratchReuse(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	pc := &pushConn{}
	msg := Message{make([]byte, 21), make([]byte, 64<<10)}
	aux := make([]byte, 53)
	pc.writeVectored(io.Discard, msg, aux) // warm the scratch
	avg := testing.AllocsPerRun(100, func() {
		if err := pc.writeVectored(io.Discard, msg, aux); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("writeVectored allocates %.1f objects per frame, want 0", avg)
	}
}

// TestPooledRecvRoundTrip runs a real Push/Pull pair with a pool
// attached and verifies payload integrity plus full lease drain.
func TestPooledRecvRoundTrip(t *testing.T) {
	pool := bufpool.New(1)
	pull, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pull.SetBufferPool(pool, 0)
	push := NewPush()
	push.Connect(pull.Addr().String())
	defer push.Close()
	defer pull.Close()

	const n = 32
	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i)
	}
	// Send/recv in lockstep so each frame's buffers are back in the pool
	// before the next frame arrives — that makes the hit assertion below
	// deterministic instead of racing the read loop.
	for i := 0; i < n; i++ {
		hdr := []byte{byte(i)}
		if err := push.SendTagged(Message{hdr, payload}, []byte{0xFE, byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		d, err := pull.RecvDelivery()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if d.Frame == nil {
			t.Fatalf("recv %d: nil Frame on pooled Pull", i)
		}
		if len(d.Msg) != 2 || d.Msg[0][0] != byte(i) || !bytes.Equal(d.Msg[1], payload) {
			t.Fatalf("recv %d: corrupt message", i)
		}
		if !bytes.Equal(d.Aux, []byte{0xFE, byte(i)}) {
			t.Fatalf("recv %d: aux = %x", i, d.Aux)
		}
		d.Frame.Release()
	}
	if got := pool.Outstanding(); got != 0 {
		t.Errorf("pool outstanding = %d after releasing all frames", got)
	}
	// sync.Pool randomly drops Puts under -race, so recycling is only
	// guaranteed in a normal build.
	if s := pool.Stats(); s.Hits == 0 && !bufpool.RaceEnabled {
		t.Errorf("expected pool hits across %d frames, got stats %+v", n, s)
	}
}

// TestFrameDoubleReleasePanics: pooled or not, a second Release of one
// Frame panics — the first may already have recycled it for another
// frame.
func TestFrameDoubleReleasePanics(t *testing.T) {
	var wire bytes.Buffer
	if err := writeMessage(&wire, Message{[]byte("x")}, nil); err != nil {
		t.Fatal(err)
	}
	for _, pool := range []*bufpool.Pool{nil, bufpool.New(1)} {
		f, err := readFrame(bytes.NewReader(wire.Bytes()), pool, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("double Release did not panic (pool %v)", pool != nil)
				}
			}()
			f.Release()
		}()
	}
}

func TestNilFrameRelease(t *testing.T) {
	var f *Frame
	f.Release() // must not panic: a holder whose frame is gone releases unconditionally
}

// FuzzVectoredFrame cross-checks the vectored writer against the scalar
// reference writer and the reader, unpooled and pooled, over
// fuzzer-chosen frame shapes: part sizing/count from a byte recipe and
// an optional aux part.
func FuzzVectoredFrame(f *testing.F) {
	for _, c := range frameCases() {
		recipe := []byte{byte(len(c.msg))}
		for _, p := range c.msg {
			recipe = append(recipe, byte(len(p)))
		}
		f.Add(recipe, []byte("seed payload seed payload"), c.aux != nil, len(c.aux))
	}
	f.Fuzz(func(t *testing.T, recipe, fill []byte, hasAux bool, auxLen int) {
		if len(recipe) == 0 {
			return
		}
		nParts := int(recipe[0]) % (MaxParts + 1)
		if len(fill) == 0 {
			fill = []byte{0}
		}
		msg := make(Message, 0, nParts)
		for i := 0; i < nParts; i++ {
			size := 0
			if 1+i < len(recipe) {
				// Part sizes up to ~8 KiB, crossing several size classes.
				size = (int(recipe[1+i]) * 33) % 8192
			}
			part := make([]byte, size)
			for j := range part {
				part[j] = fill[(i+j)%len(fill)]
			}
			msg = append(msg, part)
		}
		var aux []byte
		if hasAux {
			if auxLen < 0 {
				auxLen = -auxLen
			}
			auxLen %= 4096
			aux = make([]byte, auxLen)
			for j := range aux {
				aux[j] = fill[j%len(fill)]
			}
		}

		// Vectored bytes must equal the scalar reference writer's.
		pc := &pushConn{}
		var vecBuf bytes.Buffer
		if err := pc.writeVectored(&vecBuf, msg, aux); err != nil {
			t.Fatalf("writeVectored: %v", err)
		}
		var refBuf bytes.Buffer
		if err := writeMessage(&refBuf, msg, aux); err != nil {
			t.Fatalf("reference writer: %v", err)
		}
		if !bytes.Equal(vecBuf.Bytes(), refBuf.Bytes()) {
			t.Fatalf("vectored wire bytes diverge from reference")
		}

		// Round-trip through the reader, unpooled and pooled; the pooled
		// read must also drain its leases.
		for _, pool := range []*bufpool.Pool{nil, bufpool.New(2)} {
			fr, err := readFrame(bytes.NewReader(vecBuf.Bytes()), pool, 1)
			if err != nil {
				t.Fatalf("readFrame (pool %v): %v", pool != nil, err)
			}
			checkMsg(t, "readFrame", fr.Msg(), fr.Aux(), msg, aux)
			fr.Release()
			if n := pool.Outstanding(); n != 0 {
				t.Fatalf("pool outstanding = %d after Release", n)
			}
		}
	})
}

func checkMsg(t *testing.T, path string, got Message, gotAux []byte, want Message, wantAux []byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d parts, want %d", path, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: part %d mismatch (%d vs %d bytes)", path, i, len(got[i]), len(want[i]))
		}
	}
	if !bytes.Equal(gotAux, wantAux) {
		t.Fatalf("%s: aux mismatch: %x vs %x", path, gotAux, wantAux)
	}
}

func BenchmarkWriteVectored(b *testing.B) {
	pc := &pushConn{}
	msg := Message{make([]byte, 21), make([]byte, 1<<20)}
	aux := make([]byte, 53)
	b.SetBytes(int64(21 + 1<<20))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := pc.writeVectored(io.Discard, msg, aux); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteScalarReference(b *testing.B) {
	msg := Message{make([]byte, 21), make([]byte, 1<<20)}
	aux := make([]byte, 53)
	b.SetBytes(int64(21 + 1<<20))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := writeMessage(io.Discard, msg, aux); err != nil {
			b.Fatal(err)
		}
	}
}
