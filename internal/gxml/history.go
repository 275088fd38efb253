package gxml

import (
	"math"
	"strconv"
)

// History is a HISTORY element: one archived metric series, served in
// response to a history query. The paper's archives "support a wide
// range of time scale queries" (§2.1); this element is how a series
// travels to a viewer.
type History struct {
	Cluster string
	Host    string // SummaryHost for cluster/grid summary series
	Metric  string
	// CF names the consolidation function (AVERAGE, MAX, ...).
	CF string
	// Step is the consolidation period in seconds.
	Step int64

	Points []HistoryPoint
}

// HistoryPoint is one POINT element: a timestamped consolidated value.
// NaN marks an unknown slot (the source was silent past its heartbeat).
type HistoryPoint struct {
	Time  int64 // Unix seconds
	Value float64
}

// Unknown reports whether the point holds no value.
func (p HistoryPoint) Unknown() bool { return math.IsNaN(p.Value) }

// HistoryElem emits a HISTORY element with its points.
func (w *Writer) HistoryElem(h *History) {
	w.OpenHistory(h.Cluster, h.Host, h.Metric, h.CF, h.Step)
	for _, p := range h.Points {
		w.PointElem(p.Time, p.Value)
	}
	w.CloseHistory()
}

// OpenHistory emits a HISTORY element's open tag — the streaming form
// for answers serialized straight from the archive store, point by
// point, without materializing a History tree. Balance with
// CloseHistory.
func (w *Writer) OpenHistory(cluster, host, metric, cf string, step int64) {
	b := append(w.buf, "<HISTORY"...)
	b = appendAttr(b, ` CLUSTER="`, cluster)
	b = appendAttr(b, ` HOST="`, host)
	b = appendAttr(b, ` METRIC="`, metric)
	b = appendAttr(b, ` CF="`, cf)
	b = appendAttrInt(b, ` STEP="`, step)
	w.put(append(b, ">\n"...))
}

// PointElem emits one POINT element; a NaN value is spelled "NaN"
// (an unknown slot).
func (w *Writer) PointElem(t int64, v float64) {
	b := appendAttrInt(append(w.buf, "<POINT"...), ` T="`, t)
	if math.IsNaN(v) {
		b = append(b, ` V="NaN"`...)
	} else {
		b = appendAttrFloat(b, ` V="`, v)
	}
	w.put(append(b, "/>\n"...))
}

// CloseHistory emits a HISTORY element's close tag.
func (w *Writer) CloseHistory() { w.str("</HISTORY>\n") }

// parseHistoryValue decodes a POINT's V attribute; unparseable text
// degrades to NaN (unknown) rather than an error.
func parseHistoryValue(b []byte) float64 {
	if string(b) == "NaN" {
		return math.NaN()
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return math.NaN()
	}
	return v
}
