package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one op share OpID: an
// engine commit and the direct core and wal replays of the same op carry
// the same id, so per-op self time can be computed across them.
type span struct {
	Name   string
	Start  int64 // ns since the tracer started
	End    int64
	Parent int32 // index of the enclosing span, -1 for none
	OpID   int64
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<20)}
}

// record appends a span that ran from t0 to t1 and returns its index.
// Only one goroutine may record at a time; concurrent writers record into
// forked tracers, merged afterwards with absorb.
func (t *tracer) record(name string, t0, t1 time.Time, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name, int64(t0.Sub(t.origin)), int64(t1.Sub(t.origin)), parent, op})
	return int32(len(t.spans) - 1)
}

// begin opens a phase span, the parent of the spans recorded inside it,
// and returns its index; end closes it.
func (t *tracer) begin(name string) int32 {
	now := time.Now()
	return t.record(name, now, now, -1, -1)
}

func (t *tracer) end(i int32) {
	if t != nil && i >= 0 {
		t.spans[i].End = int64(time.Since(t.origin))
	}
}

// fork returns a tracer for another goroutine sharing this one's origin.
// Its spans may name spans of t as parents.
func (t *tracer) fork() *tracer {
	if t == nil {
		return nil
	}
	return &tracer{origin: t.origin}
}

// absorb appends the spans of a tracer forked from t.
func (t *tracer) absorb(o *tracer) {
	if t == nil || o == nil {
		return
	}
	t.spans = append(t.spans, o.spans...)
}

// write stores the spans as gzip-compressed tab-separated lines:
// index, name, start_ns, end_ns, parent, op_id.
func (t *tracer) write(path string) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "index\tname\tstart_ns\tend_ns\tparent\top_id")
	for i, sp := range t.spans {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\t%d\n", i, sp.Name, sp.Start, sp.End, sp.Parent, sp.OpID)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
