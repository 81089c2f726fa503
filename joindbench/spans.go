package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// The traced layer pass records its own spans around the public calls it
// makes into each layer; nothing inside the program is instrumented. Spans
// stay in memory and are written out once, at the end of the run.

type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a request's root span
	Request string `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Tuples is the count recorded at the same boundary (tuples produced,
	// bytes written, ...); its meaning depends on the span name.
	Tuples int64 `json:"tuples,omitempty"`
}

type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) start(name, request string, parent int) int {
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Request: request, Name: name, StartNS: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int, tuples int64) {
	r.spans[id].EndNS = int64(time.Since(r.t0))
	r.spans[id].Tuples = tuples
}

// timed records fn as a span named name under parent.
func (r *recorder) timed(name, request string, parent int, fn func() (int64, error)) error {
	id := r.start(name, request, parent)
	n, err := fn()
	r.end(id, n)
	return err
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		curS, curE := int64(-1), int64(-1)
		for _, k := range kids {
			ks, ke := max(k.StartNS, s.StartNS), min(k.EndNS, s.EndNS)
			if ke <= ks {
				continue
			}
			if ks > curE {
				covered += curE - curS
				curS, curE = ks, ke
			} else if ke > curE {
				curE = ke
			}
		}
		covered += curE - curS
		out[i] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// selfByName groups self times in milliseconds by span name.
func (r *recorder) selfByName() map[string][]float64 {
	self := selfTimes(r.spans)
	out := make(map[string][]float64)
	for i, s := range r.spans {
		out[s.Name] = append(out[s.Name], float64(self[i])/float64(time.Millisecond))
	}
	return out
}

// tuplesByName sums the recorded counts by span name.
func (r *recorder) tuplesByName() map[string]int64 {
	out := make(map[string]int64)
	for _, s := range r.spans {
		out[s.Name] += s.Tuples
	}
	return out
}

func (r *recorder) write(path string) error {
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
