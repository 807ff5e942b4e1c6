package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanRec is one recorded call into a layer: name, start, end and the span
// that caused it. Times are nanoseconds since the log was created.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced code paths call it unconditionally.
type spanLog struct {
	t0   time.Time
	mu   sync.Mutex
	recs []spanRec
	next int64
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

type openSpan struct {
	log *spanLog
	rec spanRec
}

// begin opens a span under parent (0 for a root).
func (l *spanLog) begin(parent int64, name, key string) *openSpan {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	l.next++
	id := l.next
	l.mu.Unlock()
	return &openSpan{log: l, rec: spanRec{ID: id, Parent: parent, Name: name, Key: key, Start: int64(time.Since(l.t0))}}
}

// id returns the span's identifier, 0 for a nil span.
func (s *openSpan) id() int64 {
	if s == nil {
		return 0
	}
	return s.rec.ID
}

func (s *openSpan) end() {
	if s == nil {
		return
	}
	s.rec.End = int64(time.Since(s.log.t0))
	s.log.mu.Lock()
	s.log.recs = append(s.log.recs, s.rec)
	s.log.mu.Unlock()
}

// selfTimes adds self_s.<name> for every layer in selfLayers: the summed
// duration of its spans minus the part of each span its children cover.
func (l *spanLog) selfTimes(into map[string]float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	kids := make(map[int64][]spanRec)
	for _, r := range l.recs {
		if r.Parent != 0 {
			kids[r.Parent] = append(kids[r.Parent], r)
		}
	}
	self := make(map[string]int64)
	for _, r := range l.recs {
		self[r.Name] += (r.End - r.Start) - covered(r, kids[r.ID])
	}
	for _, name := range selfLayers {
		into["self_s."+name] = float64(self[name]) / 1e9
	}
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's. Children of one parent may run concurrently.
func covered(parent spanRec, children []spanRec) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	return total + curE - curS
}

// writeJSONL writes every span, one JSON object per line, in start order.
func (l *spanLog) writeJSONL(path string) error {
	l.mu.Lock()
	recs := append([]spanRec(nil), l.recs...)
	l.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
