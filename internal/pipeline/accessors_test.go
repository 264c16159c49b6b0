package pipeline

// Views of pipeline state that only the tests read.

// Sealed reports whether the pool has fully drained (no worker will
// ever run again; Grow refuses).
func (p *Pool) Sealed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sealed
}

// Stages lists the attached stage names (order unspecified).
func (c *Controls) Stages() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.pools))
	for s := range c.pools {
		out = append(out, s)
	}
	return out
}

// encodeHeader is encodeHeaderInto into a fresh slice.
func encodeHeader(c Chunk, crc uint32) []byte {
	var h [headerLen]byte
	encodeHeaderInto(&h, c, crc)
	return h[:]
}
