package gxml

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"ganglia/internal/metric"
	"ganglia/internal/summary"
)

// elemWriter is the element API the Writer shares with the oracle it
// replaced (write_oracle_test.go).
type elemWriter interface {
	OpenDoc(version, source string)
	CloseDoc()
	OpenGrid(name, authority string, localtime int64)
	CloseGrid()
	GridAged(g *Grid, age uint32)
	OpenCluster(name, owner, url string, localtime int64)
	CloseCluster()
	HostAged(h *Host, age uint32)
	OpenHostAged(h *Host, age uint32)
	CloseHost()
	MetricAged(m *metric.Metric, age uint32)
	SourceHealthElem(sh *SourceHealth)
	SummaryBody(s *summary.Summary)
	OpenHistory(cluster, host, metric, cf string, step int64)
	PointElem(t int64, v float64)
	CloseHistory()
	Raw(b []byte)
	Flush() error
}

// reportGen draws a report from fuzz bytes; exhausted input reads as
// zeros, so every input builds some report.
type reportGen struct{ b []byte }

func (g *reportGen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

// n returns a count in [0, max].
func (g *reportGen) n(max int) int { return int(g.byte()) % (max + 1) }

func (g *reportGen) u64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = g.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// genAlphabet holds every byte the writer escapes, plus plain and
// non-ASCII bytes.
const genAlphabet = "&<>\"'\n\r\tab-_.:/ \x00\xe9"

func (g *reportGen) str() string {
	b := make([]byte, g.n(12))
	for i := range b {
		b[i] = genAlphabet[int(g.byte())%len(genAlphabet)]
	}
	return string(b)
}

var genSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	0.125, -0.125, 1.005, 2.675, -0.001, 1 << 40, (1 << 40) / 100.0, 1e15, 1e300,
}

func (g *reportGen) float() float64 {
	switch g.n(3) {
	case 0:
		return genSpecials[g.n(len(genSpecials)-1)]
	case 1:
		return float64(int64(g.u64())) / 200 // odd multiples are fixed-2 ties
	case 2:
		return math.Float64frombits(g.u64())
	}
	return float64(int32(g.u64())) / 1000
}

func (g *reportGen) metric() metric.Metric {
	t := metric.Type(g.n(int(metric.TypeTimestamp)))
	var v metric.Value
	if t.Numeric() {
		v = metric.NewNumber(t, g.float())
	} else {
		v = metric.NewTyped(t, g.str())
	}
	return metric.Metric{
		Name: g.str(), Val: v, Units: g.str(), Slope: metric.Slope(g.n(5)),
		TN: uint32(g.u64()), TMAX: uint32(g.u64()), DMAX: uint32(g.n(255)), Source: g.str(),
	}
}

func (g *reportGen) host() *Host {
	h := &Host{Name: g.str(), IP: g.str(), Reported: int64(g.u64()), TN: uint32(g.n(255)), TMAX: 20, DMAX: uint32(g.u64())}
	for i := g.n(4); i > 0; i-- {
		h.Metrics = append(h.Metrics, g.metric())
	}
	return h
}

func (g *reportGen) summary() *summary.Summary {
	s := summary.New()
	s.HostsUp, s.HostsDown = uint32(g.u64()), uint32(g.n(255))
	for i := g.n(3); i > 0; i-- {
		m := &summary.Metric{Name: g.str(), Sum: g.float(), Num: uint32(g.n(255)), Type: metric.Type(g.n(10)), Units: g.str()}
		if g.n(1) == 1 {
			m.SumSq = g.float()
		}
		s.Metrics[m.Name] = m
	}
	return s
}

func (g *reportGen) cluster() *Cluster {
	c := &Cluster{Name: g.str(), Owner: g.str(), URL: g.str(), LocalTime: int64(g.u64())}
	if g.n(2) == 0 {
		c.Summary = g.summary()
		return c
	}
	for i := g.n(3); i > 0; i-- {
		c.Hosts = append(c.Hosts, g.host())
	}
	return c
}

func (g *reportGen) grid(depth int) *Grid {
	gr := &Grid{Name: g.str(), Authority: g.str(), LocalTime: int64(g.u64())}
	for i := g.n(2); i > 0; i-- {
		sh := &SourceHealth{Name: g.str(), Status: g.str(), ActiveAddr: g.str()}
		if g.n(1) == 1 {
			sh.DownSince, sh.LastError = int64(g.u64()), g.str()
		}
		gr.Health = append(gr.Health, sh)
	}
	if g.n(2) == 0 {
		gr.Summary = g.summary()
		return gr
	}
	for i := g.n(2); i > 0; i-- {
		gr.Clusters = append(gr.Clusters, g.cluster())
	}
	for i := g.n(1); i > 0 && depth < 2; i-- {
		gr.Grids = append(gr.Grids, g.grid(depth+1))
	}
	return gr
}

func (g *reportGen) report() *Report {
	r := &Report{Source: g.str()}
	if g.n(1) == 1 {
		r.Version = g.str()
	}
	for i := g.n(2); i > 0; i-- {
		r.Clusters = append(r.Clusters, g.cluster())
	}
	for i := g.n(2); i > 0; i-- {
		r.Grids = append(r.Grids, g.grid(0))
	}
	for i := g.n(2); i > 0; i-- {
		h := &History{Cluster: g.str(), Host: g.str(), Metric: g.str(), CF: g.str(), Step: int64(g.u64())}
		for j := g.n(4); j > 0; j-- {
			h.Points = append(h.Points, HistoryPoint{Time: int64(g.u64()), Value: g.float()})
		}
		r.Histories = append(r.Histories, h)
	}
	return r
}

// writeScript drives every element method over r, reps times, with a
// Raw splice of part of blob per repetition and mid-document flushes,
// between two splices of all of blob. The repetitions carry a document
// past the streaming buffer's spill size, and a blob of spillSize bytes
// or more carries one Raw call across it, here always with bytes
// buffered ahead of it.
func writeScript(w elemWriter, r *Report, age uint32, blob []byte, cut, reps int) {
	w.OpenDoc(r.Version, r.Source)
	w.Raw(blob)
	for i := 0; i < reps; i++ {
		for _, c := range r.Clusters {
			w.OpenCluster(c.Name, c.Owner, c.URL, c.LocalTime)
			for _, h := range c.Hosts {
				if i%2 == 0 {
					w.HostAged(h, age)
					continue
				}
				w.OpenHostAged(h, age)
				for j := range h.Metrics {
					w.MetricAged(&h.Metrics[j], age+uint32(j))
				}
				w.CloseHost()
			}
			if c.Summary != nil {
				w.SummaryBody(c.Summary)
			}
			w.CloseCluster()
		}
		for _, g := range r.Grids {
			w.GridAged(g, age)
			w.OpenGrid(g.Name, g.Authority, g.LocalTime)
			for _, sh := range g.Health {
				w.SourceHealthElem(sh)
			}
			w.CloseGrid()
		}
		for _, h := range r.Histories {
			w.OpenHistory(h.Cluster, h.Host, h.Metric, h.CF, h.Step)
			for _, p := range h.Points {
				w.PointElem(p.Time, p.Value)
			}
			w.CloseHistory()
		}
		w.Raw(blob[:cut])
		if i%7 == 3 {
			_ = w.Flush()
		}
	}
	w.OpenGrid(r.Source, r.Version, int64(age))
	w.Raw(blob)
	w.CloseGrid()
	w.CloseDoc()
}

// FuzzWriteDifferential checks the append writer against the Writer it
// replaced (write_oracle_test.go): for every report built from the
// input, whole-document, DTD and element-by-element renderings must be
// byte-identical in both streaming and memory mode.
func FuzzWriteDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1}, 64))
	f.Add(bytes.Repeat([]byte{0xff, 3, 7, 1, 0x80}, 200))
	f.Add([]byte{5, 8, 0, 9, 1, 5}) // SOURCE="a&b<\n": escapes after a plain byte
	f.Add([]byte("\x02\x02\x01\x02\x03\x04&<>\"'\n\r\t\x03\x03\x01\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &reportGen{b: data}
		r := g.report()
		age := uint32(g.u64())
		cut := int(g.u64() % (spillSize + 1))

		var want, got bytes.Buffer
		if err := oracleWriteReport(&want, r); err != nil {
			t.Fatal(err)
		}
		if err := WriteReport(&got, r); err != nil {
			t.Fatal(err)
		}
		mem, _ := RenderReport(r)
		if !bytes.Equal(got.Bytes(), want.Bytes()) || !bytes.Equal(mem, want.Bytes()) {
			t.Fatalf("report differs\noracle: %q\nstream: %q\nmemory: %q", want.Bytes(), got.Bytes(), mem)
		}

		want.Reset()
		got.Reset()
		_ = oracleWriteReportWithDTD(&want, r)
		_ = WriteReportWithDTD(&got, r)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("DTD report differs\noracle: %q\nstream: %q", want.Bytes(), got.Bytes())
		}

		blob := bytes.Repeat(mem, spillSize/len(mem)+1)
		var one bytes.Buffer
		ow := newOracleWriter(&one)
		writeScript(ow, r, age, blob, min(cut, len(blob)), 1)
		reps := min(2*spillSize/(one.Len()-2*len(blob)+1)+1, 4096)

		want.Reset()
		got.Reset()
		ow = newOracleWriter(&want)
		writeScript(ow, r, age, blob, min(cut, len(blob)), reps)
		sw := NewWriter(&got)
		writeScript(sw, r, age, blob, min(cut, len(blob)), reps)
		mw := NewBuffer([]byte("prefix"))
		writeScript(mw, r, age, blob, min(cut, len(blob)), reps)
		if err := ow.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := sw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("streamed elements differ (%d vs %d bytes)", got.Len(), want.Len())
		}
		if string(mw.Bytes()[:6]) != "prefix" || !bytes.Equal(mw.Bytes()[6:], want.Bytes()) || mw.Len() != 6+want.Len() {
			t.Fatalf("memory elements differ (%d vs %d bytes)", mw.Len(), 6+want.Len())
		}
	})
}

// TestWriterAllocs is the serializer's allocation gate: rendering into
// a presized memory Writer allocates nothing, and a streamed document
// allocates its spill buffer once, however many hosts it holds.
func TestWriterAllocs(t *testing.T) {
	r := buildBigReport(100)
	for i, h := range r.Clusters[0].Hosts {
		for j := range h.Metrics {
			h.Metrics[j].Val = metric.NewDouble(float64(i*j) / 7)
		}
	}
	c := r.Clusters[0]
	render := func(w *Writer) {
		w.OpenCluster(c.Name, c.Owner, c.URL, c.LocalTime)
		for _, h := range c.Hosts {
			w.HostAged(h, 3)
		}
		w.CloseCluster()
	}
	sized := NewBuffer(nil)
	render(sized)
	buf := make([]byte, 0, sized.Len())
	if n := testing.AllocsPerRun(20, func() { render(NewBuffer(buf)) }); n != 0 {
		t.Errorf("100-host cluster into a presized memory Writer: %.0f allocations, want 0", n)
	}

	for _, hosts := range []int{50, 100} {
		r := buildBigReport(hosts)
		n := testing.AllocsPerRun(20, func() {
			if err := WriteReport(io.Discard, r); err != nil {
				t.Fatal(err)
			}
		})
		if n > 1 {
			t.Errorf("WriteReport of %d hosts: %.0f allocations, want at most 1", hosts, n)
		}
	}
}

// failAfter accepts n Write calls, then fails every one.
type failAfter struct {
	n      int
	writes int
}

var errSink = errors.New("sink failed")

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.n {
		return 0, errSink
	}
	return len(p), nil
}

// TestWriterLatchesError pins the streaming Writer's error contract:
// the first destination error is returned by Flush, and nothing more
// is written after it.
func TestWriterLatchesError(t *testing.T) {
	dst := &failAfter{n: 2}
	if err := WriteReport(dst, buildBigReport(100)); !errors.Is(err, errSink) {
		t.Fatalf("WriteReport error = %v, want %v", err, errSink)
	}
	if dst.writes != 3 {
		t.Errorf("destination saw %d writes, want 3 (two good, one failed)", dst.writes)
	}
}
