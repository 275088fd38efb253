package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"ganglia/internal/gxml"
)

// A view is one of the paper's Table-1 pages, asked of the root.
type view struct {
	name string
	// topk is the number of series a topk history answer carries.
	topk int
	// history marks views answered from the archives.
	history bool
}

var views = []view{
	{name: "meta"},
	{name: "cluster"},
	{name: "host"},
	{name: "history", history: true},
	{name: "topk", history: true, topk: 5},
	{name: "summary"},
}

const (
	// historySpan and historyStep shape every history query: most of
	// the hour the finest archive keeps, at one-minute steps. A range
	// that reaches past the finest archive is answered from a coarser
	// one.
	historySpan = 50 * time.Minute
	historyStep = time.Minute
)

// request is one query of the mix, drawn from the seed.
type request struct {
	view view
	line string
	// points is the POINT count a correct history answer carries.
	points                int
	cluster, host, metric string
	start, end            time.Time
}

// draw builds the query for view v; the seeded numbers h and m pick
// its host and metric.
func (t *benchTree) draw(v view, h, m int) request {
	host := t.viewHosts[h%len(t.viewHosts)]
	met := t.viewMetrics[m%len(t.viewMetrics)]
	// The range is aligned on the step, so its POINT count is fixed.
	start := t.clk.Now().Add(-historySpan - historyStep).Truncate(historyStep)
	end := start.Add(historySpan)
	r := request{view: v, cluster: viewCluster, host: host, metric: met, start: start, end: end}
	switch v.name {
	case "meta":
		r.line = "/"
	case "cluster":
		r.line = "/" + viewCluster
	case "host":
		r.line = "/" + viewCluster + "/" + host
	case "history":
		r.line = fmt.Sprintf("/%s/%s/%s?filter=history&start=%d&end=%d&step=%d&cf=AVERAGE",
			viewCluster, host, met, start.Unix(), end.Unix(), int(historyStep/time.Second))
		r.points = int(historySpan/historyStep) + 1 // both ends of the range are points
	case "topk":
		r.line = fmt.Sprintf("/%s/%s?topk=%d&start=%d&end=%d&step=%d&cf=AVERAGE",
			viewCluster, met, v.topk, start.Unix(), end.Unix(), int(historyStep/time.Second))
		r.points = (int(historySpan/historyStep) + 1) * v.topk
	case "summary":
		r.line = "/?filter=summary"
	}
	return r
}

// timing splits one query's client latency at the points a client can
// see: connect, first byte, last byte.
type timing struct {
	start, connected, sent, first, end time.Time
}

// ask sends one query line and reads the whole answer into buf.
func ask(addr, line string, buf *bytes.Buffer) (timing, error) {
	var tm timing
	tm.start = wall.Now()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return tm, err
	}
	defer c.Close()
	tm.connected = wall.Now()
	if _, err := io.WriteString(c, line+"\n"); err != nil {
		return tm, err
	}
	tm.sent = wall.Now()
	buf.Reset()
	var one [1]byte
	n, err := io.ReadFull(c, one[:])
	tm.first = wall.Now()
	if err != nil || n != 1 {
		return tm, fmt.Errorf("query %s: no answer: %v", line, err)
	}
	buf.WriteByte(one[0])
	if _, err := buf.ReadFrom(c); err != nil {
		return tm, err
	}
	tm.end = wall.Now()
	return tm, nil
}

// check verifies one answer: no error comment, a well-formed document,
// and for history views the expected POINT count.
func check(r request, body []byte, wantHosts int) error {
	if bytes.Contains(body, []byte("<!-- ERROR")) {
		return fmt.Errorf("%s: error answer: %.200s", r.line, body)
	}
	rep, err := gxml.Parse(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%s: %w", r.line, err)
	}
	switch r.view.name {
	case "history", "topk":
		n := 0
		for _, h := range rep.Histories {
			n += len(h.Points)
		}
		want := 1
		if r.view.topk > 0 {
			want = r.view.topk
		}
		if len(rep.Histories) != want || n != r.points {
			return fmt.Errorf("%s: %d series with %d points, want %d with %d", r.line, len(rep.Histories), n, want, r.points)
		}
	case "summary":
		if len(rep.Grids) != 1 || rep.Grids[0].Summarize().Hosts() != uint32(wantHosts) {
			return fmt.Errorf("%s: summary does not count the tree's %d hosts", r.line, wantHosts)
		}
	case "cluster", "host":
		if !strings.Contains(string(body), `NAME="`+r.cluster+`"`) {
			return fmt.Errorf("%s: answer lacks cluster %s", r.line, r.cluster)
		}
		if r.view.name == "host" && !strings.Contains(string(body), `NAME="`+r.host+`"`) {
			return fmt.Errorf("%s: answer lacks host %s", r.line, r.host)
		}
	}
	return nil
}
