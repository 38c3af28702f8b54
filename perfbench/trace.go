package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one recorded interval at a layer boundary: the layer name,
// start and end in nanoseconds since the tracer's epoch, the index of
// the span that caused it (-1 for a root) and the request it belongs
// to.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int32
	Req    int32
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the replay runs the same code traced and
// untraced.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, req int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), End: -1, Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s.Start, s.End, children[int32(i)])
	}
	return self
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name    string
	Count   int
	SelfNS  int64
	TotalNS int64
}

// selfTable aggregates spans by layer name, largest self time first.
func selfTable(spans []span) []layerTime {
	self := selfTimes(spans)
	byName := map[string]*layerTime{}
	for i, s := range spans {
		row := byName[s.Name]
		if row == nil {
			row = &layerTime{Name: s.Name}
			byName[s.Name] = row
		}
		row.Count++
		row.SelfNS += self[i]
		row.TotalNS += s.End - s.Start
	}
	rows := make([]layerTime, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].SelfNS != rows[b].SelfNS {
			return rows[a].SelfNS > rows[b].SelfNS
		}
		return rows[a].Name < rows[b].Name
	})
	return rows
}

// layerMean returns the mean self time in seconds of the spans named
// name.
func layerMean(rows []layerTime, name string) float64 {
	for _, r := range rows {
		if r.Name == name && r.Count > 0 {
			return float64(r.SelfNS) / 1e9 / float64(r.Count)
		}
	}
	return 0
}

// layerSelf returns the summed self time in seconds of the spans named
// name.
func layerSelf(rows []layerTime, name string) float64 {
	for _, r := range rows {
		if r.Name == name {
			return float64(r.SelfNS) / 1e9
		}
	}
	return 0
}

// renderSelfTable formats the table for a terminal.
func renderSelfTable(rows []layerTime) string {
	var total int64
	for _, r := range rows {
		total += r.SelfNS
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %9s %12s %12s %7s\n", "layer", "spans", "self_ms", "mean_self_us", "share")
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = float64(r.SelfNS) / float64(total)
		}
		fmt.Fprintf(&b, "%-24s %9d %12.3f %12.3f %6.1f%%\n", r.Name, r.Count,
			float64(r.SelfNS)/1e6, float64(r.SelfNS)/1e3/float64(r.Count), 100*share)
	}
	return b.String()
}

// writeSpans writes one JSON object per span.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	for i, s := range spans {
		fmt.Fprintf(bw, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"req":%d}`+"\n",
			i, s.Name, s.Start, s.End, s.Parent, s.Req)
	}
	return bw.Flush()
}

// writeSpanFile writes spans to path.
func writeSpanFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
