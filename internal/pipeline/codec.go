package pipeline

import (
	"fmt"

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
)

// trialEvery is how often a compress worker re-decides the filter: its
// first chunk and every trialEvery-th after are compressed both plain and
// bitshuffled, the smaller block ships, and the winner's choice holds
// until the next trial. Data the filter does not help (text, random or
// already-compressed bytes) pays for it on one chunk in trialEvery. A
// constant, not an option: nothing in a deployment knows better than the
// trial does.
const trialEvery = 64

// compressor is one compress worker's codec state: the pool and domain
// its output blocks are rented from, its bit-plane buffer, and its
// filter decision.
type compressor struct {
	codec Codec
	pool  *bufpool.Pool
	dom   int
	// filterable: the host has the vector encoder. The portable one costs
	// more than LZ4 saves on the planes, so without it a worker never
	// filters (receivers decode filtered frames everywhere).
	filterable bool
	filter     bool // the last trial's winner (never set unless filterable)
	chunks     int  // chunks compressed, for the trial schedule
	planes     leaseScratch
	shuffled   *metrics.Counter
	trials     *metrics.Counter
}

func newCompressor(opts SenderOptions, pool *bufpool.Pool, dom int) *compressor {
	return &compressor{
		codec: opts.Codec, pool: pool, dom: dom,
		filterable: bitshuffle.Vectorized(),
		planes:     leaseScratch{pool: pool, dom: dom},
		shuffled:   opts.Metrics.Counter(CtrChunksBitshuffled),
		trials:     opts.Metrics.Counter(CtrBitshuffleTrials),
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
	if shuffled {
		in = planes
	}
	out, err := z.block(in)
	if err != nil {
		return fmt.Errorf("compressing chunk %d: %w", c.Seq, err)
	}
	if trial {
		z.trials.Inc()
		alt, err := z.block(planes)
		if err != nil {
			out.lease.Release()
			return fmt.Errorf("compressing chunk %d: %w", c.Seq, err)
		}
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
	}
	// Whichever it was, Data is final and was just written (or,
	// unpackable, just read) by this worker.
	c.crc = wireCRC(c.Data, c.flags())
	return nil
}

// block compresses src with the worker's codec into a CompressBound-sized
// buffer rented from the pool on this worker's domain (the send worker
// releases it after the frame leaves).
func (z *compressor) block(src []byte) (block, error) {
	b := block{lease: z.pool.Get(z.dom, lz4.CompressBound(len(src)))}
	dst := b.lease.Bytes()
	var err error
	switch z.codec {
	case CodecHC:
		b.n, err = lz4.CompressBlockHC(src, dst, lz4.HCDefaultDepth)
	default:
		b.n, err = lz4.CompressBlock(src, dst)
	}
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
