package gxml

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"ganglia/internal/metric"
	"ganglia/internal/summary"
)

// distinctHostsReport is buildBigReport with a name, IP and set of
// values of its own for every host, as a live cluster has.
func distinctHostsReport(hosts int) []byte {
	r := buildBigReport(hosts)
	for i, h := range r.Clusters[0].Hosts {
		h.IP = "10.0." + itoa(i/256) + "." + itoa(i%256)
		for j := range h.Metrics {
			h.Metrics[j].Val = metric.NewDouble(float64(i*100+j) + 0.25)
		}
	}
	var buf bytes.Buffer
	_ = WriteReport(&buf, r)
	return buf.Bytes()
}

// TestParseStreamAllocsFlatInMetrics is the ingest path's allocation
// gate: doubling a report's hosts may cost one allocation per new
// distinct string (a host name and an IP each) and the growth of the
// table that holds them, never one per metric.
func TestParseStreamAllocsFlatInMetrics(t *testing.T) {
	h := &Handler{
		StartReport:   func(string, string) {},
		StartCluster:  func(string, string, string, int64) {},
		StartHost:     func(Host) {},
		Metric:        func(metric.Metric) {},
		SummaryMetric: func(summary.Metric) {},
	}
	allocs := func(hosts int) float64 {
		doc := distinctHostsReport(hosts)
		r := bytes.NewReader(doc)
		return testing.AllocsPerRun(20, func() {
			r.Reset(doc)
			if err := ParseStream(r, h); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(50), allocs(100)
	const newStrings, tableGrowth = 2 * 50, 4
	if large > small+newStrings+tableGrowth {
		t.Errorf("50 hosts: %.0f allocations, 100 hosts: %.0f; want at most %d more (%d metrics more)",
			small, large, newStrings+tableGrowth, 50*len(metric.Standard))
	}
}

// TestParseStreamStringsOutliveInput pins that every string handed to
// a Handler is a copy: overwriting the input, the reader's buffer and
// the parser's own scratch after the fact changes none of them.
func TestParseStreamStringsOutliveInput(t *testing.T) {
	r := sampleReport()
	r.Grids[0].Health = []*SourceHealth{{Name: "attic", Status: "down", ActiveAddr: "a:8651", DownSince: 5, LastError: "dial: refused"}}
	r.Histories = []*History{{Cluster: "Meteor", Host: "compute-0-0", Metric: "load_one", CF: "AVERAGE", Step: 15}}
	var buf bytes.Buffer
	if err := WriteReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	// A 16-byte buffer sends nearly every tag through the scratch path.
	for _, size := range []int{16, 64 << 10} {
		input := bytes.Clone(buf.Bytes())
		br := bufio.NewReaderSize(bytes.NewReader(input), size)
		var got, want []string
		keep := func(ss ...string) {
			for _, s := range ss {
				got, want = append(got, s), append(want, strings.Clone(s))
			}
		}
		h := &Handler{
			StartReport:   func(v, s string) { keep(v, s) },
			StartGrid:     func(n, a string, _ int64) { keep(n, a) },
			StartCluster:  func(n, o, u string, _ int64) { keep(n, o, u) },
			StartHost:     func(h Host) { keep(h.Name, h.IP) },
			Metric:        func(m metric.Metric) { keep(m.Name, m.Units, m.Source, m.Val.Text()) },
			SummaryMetric: func(sm summary.Metric) { keep(sm.Name, sm.Units) },
			SourceHealth:  func(sh SourceHealth) { keep(sh.Name, sh.Status, sh.ActiveAddr, sh.LastError) },
			StartHistory:  func(h History) { keep(h.Cluster, h.Host, h.Metric, h.CF) },
		}
		if err := ParseStream(br, h); err != nil {
			t.Fatal(err)
		}
		for i := range input {
			input[i] = '#'
		}
		br.Reset(bytes.NewReader(input))
		for {
			if _, err := br.ReadSlice('\n'); err != nil && err != bufio.ErrBufferFull {
				break
			}
		}
		if len(got) < 30 {
			t.Fatalf("buffer %d: only %d strings delivered", size, len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("buffer %d: string %d changed after the parse: %q, was %q", size, i, got[i], want[i])
			}
		}
	}
}

// TestParserTagCap: a tag may span any number of reads up to
// maxTagBytes; past that the document is rejected, not buffered.
func TestParserTagCap(t *testing.T) {
	doc := func(valueLen int) io.Reader {
		return strings.NewReader(`<GANGLIA_XML VERSION="` + strings.Repeat("v", valueLen) + `" SOURCE="s"/>`)
	}
	if _, err := Parse(doc(maxTagBytes - 100)); err != nil {
		t.Fatalf("tag just under the cap: %v", err)
	}
	_, err := Parse(doc(maxTagBytes))
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("tag over the cap: got %v, want a SyntaxError", err)
	}
}
