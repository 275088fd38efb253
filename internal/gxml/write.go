package gxml

import (
	"io"
	"strconv"

	"ganglia/internal/metric"
	"ganglia/internal/summary"
)

// XMLDecl is the declaration opening every Ganglia XML document.
const XMLDecl = `<?xml version="1.0" encoding="ISO-8859-1" standalone="yes"?>` + "\n"

// spillSize is how many bytes a streaming Writer gathers before handing
// them to its destination. spillSlack is the buffer's headroom past
// spillSize: every element but one with pathologically long attribute
// strings fits in it, so the buffer is allocated once per document and
// never regrown.
const (
	spillSize  = 32 << 10
	spillSlack = 4 << 10
)

// Writer serializes report trees and subtrees by appending to one byte
// slice. A streaming Writer (NewWriter) hands the slice to its
// destination every spillSize bytes and on Flush; a memory Writer
// (NewBuffer) keeps everything, and Bytes returns the document. The
// first destination error is latched, so callers emit a whole document
// and check once.
type Writer struct {
	buf []byte
	dst io.Writer // nil in memory mode
	err error
}

// NewWriter returns a streaming Writer on dst.
func NewWriter(dst io.Writer) *Writer {
	return &Writer{buf: make([]byte, 0, spillSize+spillSlack), dst: dst}
}

// NewBuffer returns a memory Writer that appends to dst. A dst with
// capacity for the whole rendering is never regrown.
func NewBuffer(dst []byte) *Writer { return &Writer{buf: dst} }

// Bytes returns a memory Writer's rendering.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes a memory Writer holds. Element
// methods append whole elements, so between calls Len is an element
// boundary: the offsets gmetad records to index a fragment by host.
func (w *Writer) Len() int { return len(w.buf) }

// Flush hands a streaming Writer's buffered bytes to its destination
// and returns the first error encountered. A memory Writer cannot fail.
func (w *Writer) Flush() error {
	if w.dst != nil {
		w.spill()
	}
	return w.err
}

// spill writes the buffer to the destination and empties it. After an
// error the bytes are dropped, so a failed stream stays bounded.
func (w *Writer) spill() {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.dst.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// put stores b, the buffer with one more element appended, spilling a
// streaming Writer's buffer once it is full.
func (w *Writer) put(b []byte) {
	w.buf = b
	if w.dst != nil && len(b) >= spillSize {
		w.spill()
	}
}

// Raw writes pre-serialized bytes verbatim: the splice operation behind
// gmetad's fragment cache, where a source's subtree is rendered once
// per poll generation and stitched into many responses.
func (w *Writer) Raw(b []byte) { w.put(append(w.buf, b...)) }

func (w *Writer) str(s string) { w.put(append(w.buf, s...)) }

// appendAttr appends key, an attribute's ` NAME="` prefix, then v
// escaped and the closing quote.
func appendAttr(b []byte, key, v string) []byte {
	b = append(b, key...)
	b = AppendEscaped(b, v)
	return append(b, '"')
}

func appendAttrInt(b []byte, key string, v int64) []byte {
	b = append(b, key...)
	b = strconv.AppendInt(b, v, 10)
	return append(b, '"')
}

func appendAttrFloat(b []byte, key string, v float64) []byte {
	b = append(b, key...)
	b = strconv.AppendFloat(b, v, 'f', -1, 64)
	return append(b, '"')
}

// escapes maps each byte the writer escapes to its character reference:
// the five XML attribute metacharacters, plus literal whitespace
// controls — a raw newline inside an attribute (multi-address dial
// errors join with newlines) would otherwise be normalized to a space
// by conformant parsers and break line-oriented consumers.
var escapes = [256]string{
	'&':  "&amp;",
	'<':  "&lt;",
	'>':  "&gt;",
	'"':  "&quot;",
	'\'': "&apos;",
	'\n': "&#10;",
	'\r': "&#13;",
	'\t': "&#9;",
}

// AppendEscaped appends s to dst with the Writer's attribute escaping.
// A string with nothing to escape costs one table scan and one copy.
func AppendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		if esc := escapes[s[i]]; esc != "" {
			dst = append(dst, s[last:i]...)
			dst = append(dst, esc...)
			last = i + 1
		}
	}
	return append(dst, s[last:]...)
}

// WriteReport serializes a complete GANGLIA_XML document.
func WriteReport(dst io.Writer, r *Report) error {
	w := NewWriter(dst)
	w.Report(r)
	return w.Flush()
}

// RenderReport serializes a complete GANGLIA_XML document to a byte
// slice, for callers that reuse one rendering across many writes
// (gmetad's query-response cache serves the same bytes to every client
// of a poll epoch).
func RenderReport(r *Report) ([]byte, error) {
	w := NewBuffer(nil)
	w.Report(r)
	return w.Bytes(), nil
}

// Report emits a complete document.
func (w *Writer) Report(r *Report) {
	w.OpenDoc(r.Version, r.Source)
	w.reportBody(r)
	w.CloseDoc()
}

// reportBody emits a document's top-level elements in DTD order.
func (w *Writer) reportBody(r *Report) {
	for _, c := range r.Clusters {
		w.Cluster(c)
	}
	for _, g := range r.Grids {
		w.Grid(g)
	}
	for _, h := range r.Histories {
		w.HistoryElem(h)
	}
}

// OpenDoc emits the XML declaration and the GANGLIA_XML open tag —
// the streaming entry point for answers composed element by element
// instead of through a Report tree. An empty version defaults to
// Version. Balance with CloseDoc.
func (w *Writer) OpenDoc(version, source string) {
	w.str(XMLDecl)
	w.openRoot(version, source)
}

// openRoot emits the GANGLIA_XML open tag.
func (w *Writer) openRoot(version, source string) {
	if version == "" {
		version = Version
	}
	b := append(w.buf, "<GANGLIA_XML"...)
	b = appendAttr(b, ` VERSION="`, version)
	b = appendAttr(b, ` SOURCE="`, source)
	w.put(append(b, ">\n"...))
}

// CloseDoc emits the GANGLIA_XML close tag.
func (w *Writer) CloseDoc() { w.str("</GANGLIA_XML>\n") }

// OpenGrid emits a GRID element's open tag. Callers emit the body
// (health, summary, or children) and balance with CloseGrid.
func (w *Writer) OpenGrid(name, authority string, localtime int64) {
	b := append(w.buf, "<GRID"...)
	b = appendAttr(b, ` NAME="`, name)
	b = appendAttr(b, ` AUTHORITY="`, authority)
	b = appendAttrInt(b, ` LOCALTIME="`, localtime)
	w.put(append(b, ">\n"...))
}

// CloseGrid emits a GRID element's close tag.
func (w *Writer) CloseGrid() { w.str("</GRID>\n") }

// Grid emits a GRID element. A grid with a non-nil Summary and no
// children is written in summary form; otherwise its clusters and
// nested grids are written recursively.
func (w *Writer) Grid(g *Grid) {
	w.OpenGrid(g.Name, g.Authority, g.LocalTime)
	for _, sh := range g.Health {
		w.SourceHealthElem(sh)
	}
	if g.Summary != nil && len(g.Clusters) == 0 && len(g.Grids) == 0 {
		w.SummaryBody(g.Summary)
	} else {
		for _, c := range g.Clusters {
			w.Cluster(c)
		}
		for _, child := range g.Grids {
			w.Grid(child)
		}
	}
	w.CloseGrid()
}

// GridAged emits a grid subtree with every host's soft-state TN values
// advanced by age, directly from the shared tree — the streaming
// equivalent of deep-copying the subtree through an aged clone and
// serializing the copy. Health records are not emitted: they belong to
// the serving daemon's own grid, not to re-served child trees.
func (w *Writer) GridAged(g *Grid, age uint32) {
	w.OpenGrid(g.Name, g.Authority, g.LocalTime)
	if g.Summary != nil && len(g.Clusters) == 0 && len(g.Grids) == 0 {
		w.SummaryBody(g.Summary)
	} else {
		for _, c := range g.Clusters {
			if len(c.Hosts) == 0 && c.Summary != nil {
				w.Cluster(c)
				continue
			}
			w.OpenCluster(c.Name, c.Owner, c.URL, c.LocalTime)
			for _, h := range c.Hosts {
				w.HostAged(h, age)
			}
			w.CloseCluster()
		}
		for _, child := range g.Grids {
			w.GridAged(child, age)
		}
	}
	w.CloseGrid()
}

// OpenCluster emits a CLUSTER element's open tag; balance with
// CloseCluster.
func (w *Writer) OpenCluster(name, owner, url string, localtime int64) {
	b := append(w.buf, "<CLUSTER"...)
	b = appendAttr(b, ` NAME="`, name)
	b = appendAttr(b, ` OWNER="`, owner)
	b = appendAttr(b, ` URL="`, url)
	b = appendAttrInt(b, ` LOCALTIME="`, localtime)
	w.put(append(b, ">\n"...))
}

// CloseCluster emits a CLUSTER element's close tag.
func (w *Writer) CloseCluster() { w.str("</CLUSTER>\n") }

// Cluster emits a CLUSTER element, in full-resolution form when Hosts
// is populated and summary form when only Summary is set.
func (w *Writer) Cluster(c *Cluster) {
	w.OpenCluster(c.Name, c.Owner, c.URL, c.LocalTime)
	if len(c.Hosts) == 0 && c.Summary != nil {
		w.SummaryBody(c.Summary)
	} else {
		for _, h := range c.Hosts {
			w.Host(h)
		}
	}
	w.CloseCluster()
}

// Host emits a HOST element with its metrics.
func (w *Writer) Host(h *Host) { w.HostAged(h, 0) }

// HostAged emits a HOST element with its metrics, the host's and every
// metric's TN advanced by age — soft-state aging applied during
// serialization instead of through a deep copy.
func (w *Writer) HostAged(h *Host, age uint32) {
	w.OpenHostAged(h, age)
	for i := range h.Metrics {
		w.MetricAged(&h.Metrics[i], age)
	}
	w.CloseHost()
}

// OpenHostAged emits a HOST open tag with TN advanced by age; balance
// with CloseHost. Callers that filter metrics (depth-3 queries) emit
// their own MetricAged selection between the two.
func (w *Writer) OpenHostAged(h *Host, age uint32) {
	b := append(w.buf, "<HOST"...)
	b = appendAttr(b, ` NAME="`, h.Name)
	b = appendAttr(b, ` IP="`, h.IP)
	b = appendAttrInt(b, ` REPORTED="`, h.Reported)
	b = appendAttrInt(b, ` TN="`, int64(h.TN+age))
	b = appendAttrInt(b, ` TMAX="`, int64(h.TMAX))
	b = appendAttrInt(b, ` DMAX="`, int64(h.DMAX))
	w.put(append(b, ">\n"...))
}

// CloseHost emits a HOST element's close tag.
func (w *Writer) CloseHost() { w.str("</HOST>\n") }

// Metric emits a METRIC element.
func (w *Writer) Metric(m *metric.Metric) { w.MetricAged(m, 0) }

// MetricAged emits a METRIC element with TN advanced by age.
func (w *Writer) MetricAged(m *metric.Metric, age uint32) {
	b := append(w.buf, "<METRIC"...)
	b = appendAttr(b, ` NAME="`, m.Name)
	if m.Val.Type().Numeric() {
		// Numeric text is digits, sign, point, NaN or Inf: nothing to
		// escape.
		b = append(b, ` VAL="`...)
		b = append(m.Val.AppendText(b), '"')
	} else {
		b = appendAttr(b, ` VAL="`, m.Val.Text())
	}
	b = appendAttr(b, ` TYPE="`, m.Val.Type().String())
	b = appendAttr(b, ` UNITS="`, m.Units)
	b = appendAttrInt(b, ` TN="`, int64(m.TN+age))
	b = appendAttrInt(b, ` TMAX="`, int64(m.TMAX))
	b = appendAttrInt(b, ` DMAX="`, int64(m.DMAX))
	b = appendAttr(b, ` SLOPE="`, m.Slope.String())
	b = appendAttr(b, ` SOURCE="`, m.Source)
	w.put(append(b, "/>\n"...))
}

// SourceHealthElem emits a SOURCE_HEALTH element. DOWN_SINCE and
// LAST_ERROR are omitted for healthy sources, so the steady-state
// report stays compact.
func (w *Writer) SourceHealthElem(sh *SourceHealth) {
	b := append(w.buf, "<SOURCE_HEALTH"...)
	b = appendAttr(b, ` NAME="`, sh.Name)
	b = appendAttr(b, ` STATUS="`, sh.Status)
	b = appendAttr(b, ` ACTIVE="`, sh.ActiveAddr)
	if sh.DownSince != 0 {
		b = appendAttrInt(b, ` DOWN_SINCE="`, sh.DownSince)
	}
	if sh.LastError != "" {
		b = appendAttr(b, ` LAST_ERROR="`, sh.LastError)
	}
	w.put(append(b, "/>\n"...))
}

// SummaryBody emits the summary form shared by grids and clusters: one
// HOSTS tag followed by one METRICS tag per reduced metric, exactly the
// shape of the paper's fig 3 nested "ATTIC" grid.
func (w *Writer) SummaryBody(s *summary.Summary) {
	b := append(w.buf, "<HOSTS"...)
	b = appendAttrInt(b, ` UP="`, int64(s.HostsUp))
	b = appendAttrInt(b, ` DOWN="`, int64(s.HostsDown))
	w.put(append(b, "/>\n"...))
	for _, name := range s.Names() {
		m := s.Metrics[name]
		b := append(w.buf, "<METRICS"...)
		b = appendAttr(b, ` NAME="`, m.Name)
		b = appendAttrFloat(b, ` SUM="`, m.Sum)
		b = appendAttrInt(b, ` NUM="`, int64(m.Num))
		b = appendAttr(b, ` TYPE="`, m.Type.String())
		b = appendAttr(b, ` UNITS="`, m.Units)
		if m.SumSq != 0 {
			// Extension: the sum of squares restores the standard
			// deviation the paper's SUM/NUM reductions cannot express.
			// Peers that do not know the attribute ignore it.
			b = appendAttrFloat(b, ` SUMSQ="`, m.SumSq)
		}
		w.put(append(b, "/>\n"...))
	}
}
