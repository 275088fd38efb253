package gxml

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ganglia/internal/metric"
	"ganglia/internal/summary"
)

// FuzzParse hammers the hand-rolled streaming parser with arbitrary
// bytes: it must never panic, and any document it accepts must
// round-trip through the writer and parse again to an equivalent shape.
func FuzzParse(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteReport(&seed, sampleReport())
	f.Add(seed.String())
	f.Add(`<GANGLIA_XML VERSION="1" SOURCE="s"></GANGLIA_XML>`)
	f.Add(`<GANGLIA_XML VERSION="1" SOURCE="s"><CLUSTER NAME="c" OWNER="" URL="" LOCALTIME="0"><HOST NAME="h" IP="" REPORTED="0"><METRIC NAME="m" VAL="1" TYPE="int32"/></HOST></CLUSTER></GANGLIA_XML>`)
	f.Add(`<?xml version="1.0"?><!DOCTYPE GANGLIA_XML [<!ELEMENT X (Y)>]><GANGLIA_XML VERSION="1" SOURCE="s"/>`)
	f.Add(`<GANGLIA_XML VERSION="&amp;&lt;&gt;&#65;" SOURCE="s"/>`)
	f.Add("<!-- -->")

	f.Fuzz(func(t *testing.T, doc string) {
		rep, err := Parse(strings.NewReader(doc))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteReport(&buf, rep); err != nil {
			t.Fatalf("accepted document failed to re-serialize: %v", err)
		}
		rep2, err := Parse(&buf)
		if err != nil {
			t.Fatalf("writer output unparseable: %v\ninput: %q", err, doc)
		}
		if rep2.Hosts() != rep.Hosts() {
			t.Fatalf("hosts changed across round trip: %d -> %d", rep.Hosts(), rep2.Hosts())
		}
		if len(rep2.Grids) != len(rep.Grids) || len(rep2.Clusters) != len(rep.Clusters) {
			t.Fatalf("tree shape changed across round trip")
		}
	})
}

// FuzzParseStreamChaos feeds ParseStream the failure shapes the fault
// network injects into polls — documents cut off mid-stream and
// documents with bit-flipped bytes. Whatever arrives, the streaming
// parser must return an error or a document, never panic, with every
// callback subscribed.
func FuzzParseStreamChaos(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteReport(&seed, sampleReport())
	f.Add(seed.String(), uint16(0), uint8(0))
	f.Add(seed.String(), uint16(100), uint8(0)) // truncate mid-document
	f.Add(seed.String(), uint16(0), uint8(15))  // garble ~1/16 bytes
	f.Add(seed.String(), uint16(300), uint8(7)) // both
	f.Add(`<GANGLIA_XML VERSION="1" SOURCE="s"><GRID NAME="g" AUTHORITY="a" LOCALTIME="0"><SOURCE_HEALTH NAME="x" STATUS="down" ACTIVE="a:1" DOWN_SINCE="5" LAST_ERROR="e"/></GRID></GANGLIA_XML>`, uint16(120), uint8(11))

	subscribed := &Handler{
		StartReport:   func(string, string) {},
		EndReport:     func() {},
		StartGrid:     func(string, string, int64) {},
		EndGrid:       func() {},
		StartCluster:  func(string, string, string, int64) {},
		EndCluster:    func() {},
		StartHost:     func(Host) {},
		EndHost:       func() {},
		Metric:        func(metric.Metric) {},
		SummaryHosts:  func(uint32, uint32) {},
		SummaryMetric: func(summary.Metric) {},
		SourceHealth:  func(SourceHealth) {},
		StartHistory:  func(History) {},
		EndHistory:    func() {},
		HistoryPoint:  func(HistoryPoint) {},
	}

	f.Fuzz(func(t *testing.T, doc string, cut uint16, stride uint8) {
		_ = ParseStream(bytes.NewReader(degrade(doc, cut, stride)), subscribed)
	})
}

// degrade cuts doc at cut, as a peer that closed the stream
// mid-document would, and flips roughly one bit per stride bytes, as a
// noisy link would — deterministically, so failures replay. Zero turns
// either off.
func degrade(doc string, cut uint16, stride uint8) []byte {
	b := []byte(doc)
	if int(cut) > 0 && int(cut) < len(b) {
		b = b[:cut]
	}
	if stride > 0 {
		for i := 0; i < len(b); i += int(stride) + 1 {
			b[i] ^= 1 << (uint(i) % 8)
		}
	}
	return b
}

// FuzzParseDifferential checks the scanner against the byte-at-a-time
// parser it replaced (parse_oracle_test.go): for every input both must
// accept or both reject, and deliver the same Handler events, in
// order, up to the verdict. The scanner also runs behind a 16-byte
// reader buffer, so that nearly every tag spans reads.
func FuzzParseDifferential(f *testing.F) {
	for _, seed := range differentialSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		var want eventLog
		wantErr := oracleParseStream(strings.NewReader(doc), want.handler())
		for _, r := range []io.Reader{
			strings.NewReader(doc),
			bufio.NewReaderSize(strings.NewReader(doc), 16),
		} {
			var got eventLog
			err := ParseStream(r, got.handler())
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("verdicts differ: scanner %v, oracle %v\ninput: %q", err, wantErr, doc)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("events differ (scanner %v, oracle %v)\nscanner: %q\noracle:  %q\ninput: %q",
					err, wantErr, got, want, doc)
			}
		}
	})
}

// differentialSeeds returns the golden documents, the committed
// corpora of FuzzParse and FuzzParseStreamChaos (the latter degraded
// as that fuzzer would), and the corners where a tag scanner and a
// byte reader can part ways.
func differentialSeeds(tb testing.TB) []string {
	golden := sampleReport()
	golden.Grids[0].Health = []*SourceHealth{{Name: "attic", Status: "down", ActiveAddr: "a:8651", DownSince: 5, LastError: "dial: refused"}}
	golden.Histories = []*History{{Cluster: "Meteor", Host: "compute-0-0", Metric: "load_one", CF: "AVERAGE", Step: 15,
		Points: []HistoryPoint{{Time: 15, Value: 0.5}, {Time: 30, Value: math.NaN()}}}}
	var plain, dtd, big bytes.Buffer
	_ = WriteReport(&plain, golden)
	_ = WriteReportWithDTD(&dtd, golden)
	_ = WriteReport(&big, buildBigReport(2))
	seeds := []string{plain.String(), dtd.String(), big.String(),
		`<GANGLIA_XML VERSION="a>b" SOURCE='"x>y"'><CLUSTER NAME=">" OWNER="" URL="http://h/?a>b" LOCALTIME="1"/></GANGLIA_XML>`,
		`<GANGLIA_XML><CLUSTER LOCALTIME="+42"><HOST REPORTED="-7" TN="4294967297" TMAX="9223372036854775807" DMAX="99999999999999999999">` +
			`<METRIC VAL="1e3" TYPE="double"/><METRIC VAL="NaN" TYPE="float"/><METRIC VAL="0x1p-2" TYPE="double"/><METRIC VAL="1_0" TYPE="int8"/>` +
			`</HOST></CLUSTER></GANGLIA_XML>`,
		`<GANGLIA_XML VERSION="1" SOURCE="s" VERSION="2"><X A="&bogus;"/></GANGLIA_XML>`,
		`<GANGLIA_XML VERSION="&#0000065;&#x0000042;" SOURCE="&#00000065;"/>`,
		`<GANGLIA_XML VERSION="&#000000065;" SOURCE=""/>`,
		`<??><?x ?><!----><!-- -- -> --><!DOCTYPE [<!X [>]>]><GANGLIA_XML/>`,
		`<?>?><GANGLIA_XML/><!--->-->`,
		`<GANGLIA_XML/><UNKNOWN><deep></mismatch>`,
		`<GANGLIA_XML A="1"B='2'/ >`,
		`<GANGLIA_XML></GANGLIA_XML/>`,
		"<GANGLIA_XML\n>< GRID/></GANGLIA_XML>",
	}
	for _, dir := range []string{"FuzzParse", "FuzzParseStreamChaos"} {
		files, err := filepath.Glob(filepath.Join("testdata", "fuzz", dir, "*"))
		if err != nil || len(files) == 0 {
			tb.Fatalf("corpus %s: %v", dir, err)
		}
		for _, name := range files {
			vals := corpusValues(tb, name)
			if dir == "FuzzParse" {
				seeds = append(seeds, vals[0])
				continue
			}
			cut, _ := strconv.ParseUint(vals[1], 10, 16)
			stride, _ := strconv.ParseUint(vals[2], 10, 8)
			seeds = append(seeds, string(degrade(vals[0], uint16(cut), uint8(stride))))
		}
	}
	return seeds
}

// corpusValues reads the values of a "go test fuzz v1" corpus file:
// strings unquoted, numbers as their digits.
func corpusValues(tb testing.TB, name string) []string {
	data, err := os.ReadFile(name)
	if err != nil {
		tb.Fatal(err)
	}
	var vals []string
	for _, line := range strings.Split(string(data), "\n")[1:] {
		open, close := strings.IndexByte(line, '('), strings.LastIndexByte(line, ')')
		if open < 0 || close < open {
			continue
		}
		v := line[open+1 : close]
		if strings.HasPrefix(line, "string(") {
			if v, err = strconv.Unquote(v); err != nil {
				tb.Fatalf("%s: %v", name, err)
			}
		}
		vals = append(vals, v)
	}
	return vals
}

// eventLog records every Handler event as text.
type eventLog []string

func (l *eventLog) add(format string, args ...any) { *l = append(*l, fmt.Sprintf(format, args...)) }

func (l *eventLog) handler() *Handler {
	return &Handler{
		StartReport:   func(v, s string) { l.add("report %q %q", v, s) },
		EndReport:     func() { l.add("/report") },
		StartGrid:     func(n, a string, lt int64) { l.add("grid %q %q %d", n, a, lt) },
		EndGrid:       func() { l.add("/grid") },
		StartCluster:  func(n, o, u string, lt int64) { l.add("cluster %q %q %q %d", n, o, u, lt) },
		EndCluster:    func() { l.add("/cluster") },
		StartHost:     func(h Host) { l.add("host %+v", h) },
		EndHost:       func() { l.add("/host") },
		Metric:        func(m metric.Metric) { l.add("metric %+v", m) },
		SummaryHosts:  func(up, down uint32) { l.add("hosts %d %d", up, down) },
		SummaryMetric: func(sm summary.Metric) { l.add("metrics %+v", sm) },
		SourceHealth:  func(sh SourceHealth) { l.add("health %+v", sh) },
		StartHistory:  func(h History) { l.add("history %+v", h) },
		EndHistory:    func() { l.add("/history") },
		HistoryPoint:  func(p HistoryPoint) { l.add("point %+v", p) },
	}
}
