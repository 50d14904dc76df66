package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Levels are workload →
// phase → request; replayed layer calls are children of their request.
// Req is the request id shared by all spans of one query (-1 for phases).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once the run ends.
// A disabled tracer (untraced runs) records nothing.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// add records a finished span and returns its id (-1 when disabled).
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// begin opens a phase span; end closes it.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, -1, now, now)
}

func (t *tracer) end(id int) {
	if !t.on || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(time.Since(t.t0))
	t.mu.Unlock()
}

// addSince records a span from start to now and returns its duration; it
// times the call even when tracing is off.
func (t *tracer) addSince(name string, parent int, req int64, start time.Time) time.Duration {
	end := time.Now()
	t.add(name, parent, req, start, end)
	return end.Sub(start)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
