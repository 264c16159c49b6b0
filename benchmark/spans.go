package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
)

// span is one timed interval recorded by the harness around a call into
// a layer (or around a phase of the run). Times are nanoseconds since
// the run's epoch. Spans of one chunk share (Stream, Seq); spans that
// belong to no chunk carry Stream -1.
type span struct {
	ID, Parent int64
	Name       string
	Start, End int64
	Stream     int32
	Seq        int64
	// Calls > 1 marks a batch: sub-microsecond operations (queue,
	// bufpool, ledger) are timed as one span over Calls calls, because a
	// span per call would time the clock instead.
	Calls int64
	// Self is End-Start minus the part of that interval covered by
	// child spans; filled by finish.
	Self int64
}

// recorder keeps spans in memory until the run ends. It is used from
// one goroutine at a time; the per-chunk spans of the live window are
// buffered per stream (see streamState) and merged in before finish.
// A nil recorder records nothing, which is the untraced run.
type recorder struct {
	spans []span
}

// add records a finished span and returns its id (0 on a nil recorder).
func (r *recorder) add(parent int64, name string, start, end int64) int64 {
	return r.addChunk(parent, name, start, end, -1, 0, 1)
}

func (r *recorder) addChunk(parent int64, name string, start, end int64, stream int32, seq, calls int64) int64 {
	if r == nil {
		return 0
	}
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end,
		Stream: stream, Seq: seq, Calls: calls})
	return id
}

// open starts a span whose end is not known yet; close sets it.
func (r *recorder) open(parent int64, name string, start int64) int64 {
	return r.add(parent, name, start, start)
}

func (r *recorder) close(id, end int64) {
	if r != nil && id > 0 {
		r.spans[id-1].End = end
	}
}

// finish computes every span's self time: its duration minus the union
// of its children's intervals, each clipped to the parent (a chunk
// delivered in one window may have been sent in the previous one).
func (r *recorder) finish() {
	if r == nil {
		return
	}
	type iv struct{ a, b int64 }
	children := make(map[int64][]iv)
	for _, s := range r.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		s.Self = s.End - s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].a < kids[b].a })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			a, b := max(k.a, edge), min(k.b, s.End)
			if b > a {
				covered += b - a
				edge = b
			}
		}
		s.Self -= covered
	}
}

// write stores the spans as one JSON document. Hand-rolled: a traced
// window records tens of thousands of spans and this runs inside the
// driver's per-run time limit.
func (r *recorder) write(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"clock\":\"ns since run start\",\"spans\":[", workload, seed)
	for i, s := range r.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d",
			s.ID, s.Parent, s.Name, s.Start, s.End, s.Self)
		if s.Stream >= 0 {
			fmt.Fprintf(w, ",\"stream\":%d,\"seq\":%d", s.Stream, s.Seq)
		}
		if s.Calls > 1 {
			fmt.Fprintf(w, ",\"calls\":%d", s.Calls)
		}
		w.WriteByte('}')
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
