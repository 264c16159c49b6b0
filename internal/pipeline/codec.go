package pipeline

import (
	"fmt"
	"math/bits"

	"numastream/internal/bitshuffle"
	"numastream/internal/bufpool"
	"numastream/internal/lz4"
	"numastream/internal/metrics"
)

// Sender-side filter counters recorded in SenderOptions.Metrics.
const (
	// CtrChunksBitshuffled counts chunks that went on the wire as LZ4
	// blocks of their bit-planes.
	CtrChunksBitshuffled = "chunks_bitshuffled"
	// CtrBitshuffleTrials counts chunks a compress worker compressed both
	// plain and bitshuffled to decide which way to send the next ones.
	CtrBitshuffleTrials = "bitshuffle_trials"
	// CtrPlanesLiteral counts bit-planes that went on the wire as literal
	// runs inside their chunk's LZ4 block (see literalBelow).
	CtrPlanesLiteral = "planes_literal"
)

// trialEvery is how often a compress worker re-decides the filter: its
// first chunk and every trialEvery-th after are compressed both plain and
// bitshuffled, the smaller block ships, and the winner's choice holds
// until the next trial. Data the filter does not help (text, random or
// already-compressed bytes) pays for it on one chunk in trialEvery. A
// constant, not an option: nothing in a deployment knows better than the
// trial does.
const trialEvery = 64

// literalBelow is the ratio under which a bit-plane travels as a literal
// run. At each trial the worker charges every plane of the bitshuffled
// block its literal bytes plus 3 for each match that starts in it
// (lz4.RegionCosts); until the next trial, a plane whose bytes over its
// charge came to less than this is handed to LZ4 as a literal span, which
// the parse skips. On seeded tomo projections cut into 1 MiB chunks,
// plane 4 is noise at 1.00:1, plane 5 is 1.76–1.79:1 and planes 6 and up
// 3.5:1 or more; carrying planes 4 and 5 as literals took encode from
// 0.87 to 0.70 ms and decode from 0.30 to 0.26 ms per MiB (lz4's Tomo
// benchmarks, one core of a 2-vCPU VM), for a wire ratio of 4.58:1
// instead of 5.22. In 16 KiB chunks plane 5 reads 1.28–2.39:1 and plane 6
// 1.80:1 and up, by where the chunk sits in the projection: 14.6 → 10.2
// µs, 4.91 → 4.41:1. The set follows the data, never a plane index: a
// quieter detector keeps its plane 5, a noisier one loses plane 6 too.
const literalBelow = 2

// compressor is one compress worker's codec state: the pool and domain
// its output blocks are rented from, its bit-plane buffer, and its
// filter decision.
type compressor struct {
	pool *bufpool.Pool
	dom  int
	// filterable: the host has the vector encoder. The portable one costs
	// more than LZ4 saves on the planes, so without it a worker never
	// filters (receivers decode filtered frames everywhere).
	filterable bool
	filter     bool // the last trial's winner (never set unless filterable)
	chunks     int  // chunks compressed, for the trial schedule
	planes     leaseScratch
	// literal is the last trial's set of literal bit-planes (bit p for
	// plane p, see literalBelow), and spans their byte ranges in the
	// current chunk.
	literal   uint16
	spans     []lz4.Span
	shuffled  *metrics.Counter
	trials    *metrics.Counter
	planesLit *metrics.Counter
}

func newCompressor(opts SenderOptions, pool *bufpool.Pool, dom int) *compressor {
	return &compressor{
		pool: pool, dom: dom,
		filterable: bitshuffle.Vectorized(),
		planes:     leaseScratch{pool: pool, dom: dom},
		spans:      make([]lz4.Span, 0, bitshuffle.Planes/2),
		shuffled:   opts.Metrics.Counter(CtrChunksBitshuffled),
		trials:     opts.Metrics.Counter(CtrBitshuffleTrials),
		planesLit:  opts.Metrics.Counter(CtrPlanesLiteral),
	}
}

// block is one compressed candidate: n bytes at the front of lease.
type block struct {
	lease *bufpool.Buf
	n     int
}

// compress turns c's raw Data into what travels the wire — an LZ4 block
// of the samples or of their bit-planes, or the raw chunk itself when
// neither is smaller — and sets Data, Packed, Shuffled, lease and crc.
func (z *compressor) compress(c *Chunk) error {
	src := c.Data
	trial := z.filterable && z.chunks%trialEvery == 0
	z.chunks++
	var planes []byte
	if trial || z.filter {
		planes = z.planes.get(len(src))
		bitshuffle.Encode(planes, src)
	}
	in, shuffled := src, z.filter && !trial
	var lits []lz4.Span
	if shuffled {
		in = planes
		lits = z.literalSpans(len(src))
	}
	out, err := z.block(in, lits)
	if err != nil {
		return fmt.Errorf("compressing chunk %d: %w", c.Seq, err)
	}
	if trial {
		z.trials.Inc()
		alt, err := z.block(planes, nil)
		if err != nil {
			out.lease.Release()
			return fmt.Errorf("compressing chunk %d: %w", c.Seq, err)
		}
		z.chooseLiteral(alt.lease.Bytes()[:alt.n], len(src))
		// A tie keeps the plain block: the filter must earn its cost.
		if z.filter = alt.n < out.n; z.filter {
			out, alt = alt, out
			shuffled = true
		}
		alt.lease.Release()
	}
	if out.n >= len(src) {
		// Incompressible: the raw chunk ships as-is, unfiltered.
		out.lease.Release()
		shuffled = false
	} else {
		out.lease.SetLen(out.n)
		c.Data = out.lease.Bytes()
		c.lease = out.lease // released by the send worker
		c.Packed = true
	}
	c.Shuffled = shuffled
	if shuffled {
		z.shuffled.Inc()
		if len(lits) > 0 {
			z.planesLit.Add(int64(bits.OnesCount16(z.literal)))
		}
	}
	// Whichever it was, Data is final and was just written (or,
	// unpackable, just read) by this worker.
	c.crc = wireCRC(c.Data, c.flags())
	return nil
}

// chooseLiteral re-decides the literal planes from a trial's LZ4 block of
// an n-byte chunk's bit-planes (see literalBelow).
func (z *compressor) chooseLiteral(block []byte, n int) {
	z.literal = 0
	q := bitshuffle.PlaneLen(n)
	var costs [bitshuffle.Planes]int
	if q == 0 || lz4.RegionCosts(block, q, costs[:]) != nil {
		return
	}
	for p, cost := range costs {
		if q < literalBelow*cost {
			z.literal |= 1 << p
		}
	}
}

// literalSpans is the literal planes' byte ranges in the bit-planes of an
// n-byte chunk, adjacent planes merged; nil when there are none.
func (z *compressor) literalSpans(n int) []lz4.Span {
	q := bitshuffle.PlaneLen(n)
	if z.literal == 0 || q == 0 {
		return nil
	}
	z.spans = z.spans[:0]
	for p := 0; p < bitshuffle.Planes; p++ {
		if z.literal&(1<<p) == 0 {
			continue
		}
		if k := len(z.spans) - 1; k >= 0 && z.spans[k].End == p*q {
			z.spans[k].End += q
		} else {
			z.spans = append(z.spans, lz4.Span{Start: p * q, End: (p + 1) * q})
		}
	}
	return z.spans
}

// block compresses src, lits carried as literals, into a
// CompressBound-sized buffer rented from the pool on this worker's domain
// (the send worker releases it after the frame leaves).
func (z *compressor) block(src []byte, lits []lz4.Span) (block, error) {
	b := block{lease: z.pool.Get(z.dom, lz4.CompressBound(len(src)))}
	var err error
	b.n, err = lz4.CompressBlockLiterals(src, b.lease.Bytes(), lits)
	if err != nil {
		b.lease.Release()
		return block{}, err
	}
	return b, nil
}

// close returns what the worker rented for its lifetime.
func (z *compressor) close() { z.planes.release() }

// leaseScratch is a worker's bit-plane buffer: rented from the pool on
// the worker's domain at first use, kept for the worker's lifetime (one
// rental, not one per chunk), re-rented only when a chunk outgrows it,
// and released when the worker exits.
type leaseScratch struct {
	pool *bufpool.Pool
	dom  int
	buf  *bufpool.Buf
}

func (s *leaseScratch) get(n int) []byte {
	if s.buf == nil || s.buf.Cap() < n {
		s.buf.Release()
		s.buf = s.pool.Get(s.dom, n)
	}
	s.buf.SetLen(n)
	return s.buf.Bytes()
}

func (s *leaseScratch) release() {
	s.buf.Release()
	s.buf = nil
}

// decompress turns a packed chunk's LZ4 block back into the raw chunk, in
// a buffer rented on the decompressing worker's domain; a bitshuffled
// block is decoded into the worker's plane scratch first and transformed
// from there into the output.
func decompress(c *Chunk, pool *bufpool.Pool, dom int, planes *leaseScratch) error {
	c.lease = pool.Get(dom, c.RawLen)
	raw := c.lease.Bytes()
	dst := raw
	if c.Shuffled {
		dst = planes.get(c.RawLen)
	}
	n, err := lz4.DecompressBlock(c.Data, dst)
	if err == nil && n != c.RawLen {
		err = fmt.Errorf("lz4: decompressed %d bytes, want %d", n, c.RawLen)
	}
	if err != nil {
		return err
	}
	if c.Shuffled {
		bitshuffle.Decode(raw, dst)
	}
	c.Data = raw
	c.Packed, c.Shuffled = false, false
	return nil
}
