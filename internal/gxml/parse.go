package gxml

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"

	"ganglia/internal/metric"
	"ganglia/internal/summary"
	"ganglia/internal/xdr"
)

// Handler receives streaming parse events. Nil callbacks are skipped,
// so a consumer subscribes only to the events it needs — gmetad's
// collector, for instance, builds its hash tables directly from these
// callbacks without materializing a document tree.
type Handler struct {
	StartReport func(version, source string)
	EndReport   func()

	StartGrid func(name, authority string, localtime int64)
	EndGrid   func()

	StartCluster func(name, owner, url string, localtime int64)
	EndCluster   func()

	// StartHost receives the host attributes; its metrics follow as
	// Metric events before EndHost.
	StartHost func(h Host)
	EndHost   func()

	Metric func(m metric.Metric)

	// SummaryHosts and SummaryMetric deliver the summary form (HOSTS
	// and METRICS tags) of the enclosing grid or cluster.
	SummaryHosts  func(up, down uint32)
	SummaryMetric func(sm summary.Metric)

	// SourceHealth delivers the enclosing grid's per-source
	// degradation records (SOURCE_HEALTH tags).
	SourceHealth func(sh SourceHealth)

	// StartHistory receives a HISTORY element's attributes; its points
	// follow as HistoryPoint events before EndHistory.
	StartHistory func(h History)
	EndHistory   func()
	HistoryPoint func(p HistoryPoint)
}

// SyntaxError describes a malformed or mis-nested document.
type SyntaxError struct {
	Offset int64
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("gxml: offset %d: %s", e.Offset, e.Msg)
}

// maxTagBytes bounds one tag, the most the parser buffers at a time.
// The largest tag a conforming gmond emits is a METRIC whose four
// string attributes each hold xdr.MaxStringLen bytes with every byte
// escaped (&quot; is six), about 1.5 MiB; past the cap the document is
// rejected rather than buffered without limit.
const maxTagBytes = 32 * xdr.MaxStringLen

// maxEntity bounds the text between '&' and ';' in an entity reference.
const maxEntity = 9

// elem identifies an element of the DTD.
type elem uint8

const (
	// elemNone is a name outside the DTD and, as a parent, the
	// document level.
	elemNone elem = iota
	elemReport
	elemGrid
	elemCluster
	elemHost
	elemMetric
	elemHosts
	elemMetrics
	elemSourceHealth
	elemHistory
	elemPoint
)

var elemNames = [...]string{"", "GANGLIA_XML", "GRID", "CLUSTER", "HOST", "METRIC",
	"HOSTS", "METRICS", "SOURCE_HEALTH", "HISTORY", "POINT"}

// parents holds, per element, the elements it may appear in as a bit
// mask over elem.
var parents = [...]uint16{
	elemReport:       1 << elemNone,
	elemGrid:         1<<elemReport | 1<<elemGrid,
	elemCluster:      1<<elemReport | 1<<elemGrid,
	elemHost:         1 << elemCluster,
	elemMetric:       1 << elemHost,
	elemHosts:        1<<elemGrid | 1<<elemCluster,
	elemMetrics:      1<<elemGrid | 1<<elemCluster,
	elemSourceHealth: 1 << elemGrid,
	elemHistory:      1 << elemReport,
	elemPoint:        1 << elemHistory,
}

func elemOf(name []byte) elem {
	for el := elemReport; el <= elemPoint; el++ {
		if string(name) == elemNames[el] {
			return el
		}
	}
	return elemNone
}

// attr identifies an attribute the Handler receives; the DTD's
// elements share one name space, so NAME is one attr wherever it
// appears.
type attr uint8

const (
	attrOther attr = iota
	attrVersion
	attrSource
	attrName
	attrAuthority
	attrLocaltime
	attrOwner
	attrURL
	attrIP
	attrReported
	attrTN
	attrTMAX
	attrDMAX
	attrVal
	attrType
	attrUnits
	attrSlope
	attrUp
	attrDown
	attrSum
	attrSumSq
	attrNum
	attrStatus
	attrActive
	attrDownSince
	attrLastError
	attrCluster
	attrHost
	attrMetric
	attrCF
	attrStep
	attrT
	attrV
	numAttrs
)

func attrOf(name []byte) attr {
	switch string(name) {
	case "VERSION":
		return attrVersion
	case "SOURCE":
		return attrSource
	case "NAME":
		return attrName
	case "AUTHORITY":
		return attrAuthority
	case "LOCALTIME":
		return attrLocaltime
	case "OWNER":
		return attrOwner
	case "URL":
		return attrURL
	case "IP":
		return attrIP
	case "REPORTED":
		return attrReported
	case "TN":
		return attrTN
	case "TMAX":
		return attrTMAX
	case "DMAX":
		return attrDMAX
	case "VAL":
		return attrVal
	case "TYPE":
		return attrType
	case "UNITS":
		return attrUnits
	case "SLOPE":
		return attrSlope
	case "UP":
		return attrUp
	case "DOWN":
		return attrDown
	case "SUM":
		return attrSum
	case "SUMSQ":
		return attrSumSq
	case "NUM":
		return attrNum
	case "STATUS":
		return attrStatus
	case "ACTIVE":
		return attrActive
	case "DOWN_SINCE":
		return attrDownSince
	case "LAST_ERROR":
		return attrLastError
	case "CLUSTER":
		return attrCluster
	case "HOST":
		return attrHost
	case "METRIC":
		return attrMetric
	case "CF":
		return attrCF
	case "STEP":
		return attrStep
	case "T":
		return attrT
	case "V":
		return attrV
	}
	return attrOther
}

type parser struct {
	br   *bufio.Reader
	h    *Handler
	off  int64 // bytes consumed
	stk  []elem
	skip int // depth inside an unknown element's subtree
	// rootClosed records that a complete GANGLIA_XML element was seen
	// (including the self-closing form).
	rootClosed bool

	// vals holds the current tag's attribute values, raw, as views of
	// the tag; bit a of set marks vals[a] present, and bit a of amp
	// marks it holding entity references. The first of duplicate
	// attributes wins.
	vals     [numAttrs][]byte
	set, amp uint64

	tag  []byte            // a tag that spans the reader's buffer
	ent  []byte            // an attribute value with its entities decoded
	strs map[string]string // every string handed out, one copy each
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Offset: p.off, Msg: fmt.Sprintf(format, args...)}
}

// ParseStream reads one GANGLIA_XML document from r, invoking h's
// callbacks as elements are encountered. It validates nesting against
// the Ganglia DTD and fails on truncated or malformed input. Unknown
// elements (and their subtrees) are skipped for forward compatibility.
//
// The parser scans whole tags out of the reader's buffer (r itself
// when it is a *bufio.Reader) and matches names as bytes. Strings
// handed to h are copies, made once per distinct value per document,
// so they stay valid after ParseStream returns. A tag longer than
// maxTagBytes is a SyntaxError.
func ParseStream(r io.Reader, h *Handler) error {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 32*1024)
	}
	p := &parser{br: br, h: h, strs: make(map[string]string)}
	for {
		// The Ganglia dialect has no element text; tolerate and skip
		// whatever appears between tags (whitespace in practice).
		err := p.skipPast('<')
		if err == io.EOF {
			if len(p.stk) != 0 {
				return p.errf("unexpected EOF inside <%s>", elemNames[p.stk[len(p.stk)-1]])
			}
			if !p.rootClosed {
				return p.errf("empty document")
			}
			return nil
		}
		if err != nil {
			return err
		}
		next, err := p.br.Peek(1)
		if err != nil {
			return p.errf("truncated tag")
		}
		switch next[0] {
		case '?':
			p.discard(1)
			err = p.skipThrough("?>")
		case '!':
			p.discard(1)
			err = p.skipDeclaration()
		default:
			err = p.element()
		}
		if err != nil {
			return err
		}
	}
}

func (p *parser) readSlice(delim byte) ([]byte, error) {
	b, err := p.br.ReadSlice(delim)
	p.off += int64(len(b))
	return b, err
}

func (p *parser) discard(n int) {
	n, _ = p.br.Discard(n)
	p.off += int64(n)
}

// skipPast discards input through the next delim.
func (p *parser) skipPast(delim byte) error {
	for {
		if _, err := p.readSlice(delim); err != bufio.ErrBufferFull {
			return err
		}
	}
}

// skipThrough discards input through the first occurrence of end, a
// two- or three-byte terminator closing with '>', among the bytes not
// yet consumed.
func (p *parser) skipThrough(end string) error {
	var tail [2]byte // the last two bytes consumed before chunk
	for {
		chunk, err := p.readSlice('>')
		if err == nil && endsWith(tail, chunk, end) {
			return nil
		}
		if err != nil && err != bufio.ErrBufferFull {
			return p.errf("truncated %q section", end)
		}
		if n := len(chunk); n >= 2 {
			tail = [2]byte{chunk[n-2], chunk[n-1]}
		} else {
			tail = [2]byte{tail[1], chunk[0]}
		}
	}
}

// endsWith reports whether tail followed by chunk ends with end.
func endsWith(tail [2]byte, chunk []byte, end string) bool {
	for i := 1; i <= len(end); i++ {
		var c byte
		if j := len(chunk) - i; j >= 0 {
			c = chunk[j]
		} else {
			c = tail[2+j]
		}
		if c != end[len(end)-i] {
			return false
		}
	}
	return true
}

// skipDeclaration discards a <!...> construct, its "<!" consumed: a
// comment (which may contain '>') or a DOCTYPE possibly carrying an
// internal subset in square brackets.
func (p *parser) skipDeclaration() error {
	if b, err := p.br.Peek(2); err == nil && b[0] == '-' && b[1] == '-' {
		p.discard(2)
		return p.skipThrough("-->")
	}
	depth := 0
	for {
		chunk, err := p.readSlice('>')
		depth += bytes.Count(chunk, []byte("[")) - bytes.Count(chunk, []byte("]"))
		if err == nil && depth <= 0 {
			return nil
		}
		if err != nil && err != bufio.ErrBufferFull {
			return p.errf("truncated declaration")
		}
	}
}

// readTag returns the bytes of a tag between its '<', consumed, and
// the next '>', which may yet turn out to sit inside a quoted value
// (see moreTag). The slice views the reader's buffer, or p.tag when
// the tag spans it, and is valid until the next read.
func (p *parser) readTag() ([]byte, error) {
	chunk, err := p.readSlice('>')
	if err == nil && len(chunk) <= maxTagBytes {
		return chunk[:len(chunk)-1], nil
	}
	p.tag = p.tag[:0]
	return p.spanTag(chunk, err, 0)
}

// moreTag reads on from a tag t that readTag ended at a '>' inside a
// value opened by quote, through the '>' that really closes the tag.
func (p *parser) moreTag(t []byte, quote byte) ([]byte, error) {
	p.tag = append(append(p.tag[:0], t...), '>')
	chunk, err := p.readSlice('>')
	return p.spanTag(chunk, err, quote)
}

// spanTag appends chunk, the latest read, to the tag in p.tag, which
// ends with quote open, and reads on through the first '>' outside
// quotes.
func (p *parser) spanTag(chunk []byte, err error, quote byte) ([]byte, error) {
	for {
		if len(p.tag)+len(chunk) > maxTagBytes {
			return nil, p.errf("tag longer than %d bytes", maxTagBytes)
		}
		p.tag = append(p.tag, chunk...)
		quote = scanQuotes(chunk, quote)
		if err == nil && quote == 0 {
			return p.tag[:len(p.tag)-1], nil
		}
		if err != nil && err != bufio.ErrBufferFull {
			return nil, p.errf("truncated tag")
		}
		chunk, err = p.readSlice('>')
	}
}

// scanQuotes returns the quote open at the end of b, given the quote
// open at its start (0 for none).
func scanQuotes(b []byte, quote byte) byte {
	for _, c := range b {
		switch {
		case quote == 0 && (c == '"' || c == '\''):
			quote = c
		case c == quote:
			quote = 0
		}
	}
	return quote
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

var isNameByte = func() (t [256]bool) {
	for c := range t {
		t[c] = c == '_' || c == '-' || c == '.' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
	}
	return t
}()

// nameLen returns the length of the name that starts b.
func nameLen(b []byte) int {
	for i, c := range b {
		if !isNameByte[c] {
			return i
		}
	}
	return len(b)
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// element parses one start or end tag and delivers its events.
func (p *parser) element() error {
	t, err := p.readTag()
	if err != nil {
		return err
	}
	if len(t) > 0 && t[0] == '/' {
		n := 1 + nameLen(t[1:])
		if n == 1 {
			return p.errf("empty or invalid name in end tag")
		}
		if i := skipSpace(t, n); i != len(t) {
			return p.errf("unexpected %q in end tag", t[i])
		}
		return p.closeElement(t[1:n])
	}
	for {
		quote, err := p.startTag(t)
		if quote == 0 {
			return err
		}
		if t, err = p.moreTag(t, quote); err != nil {
			return err
		}
	}
}

// startTag parses a start tag and delivers its events. When a quoted
// value runs past the end of t, the '>' that ended t was inside it:
// startTag then delivers nothing and returns the value's quote.
func (p *parser) startTag(t []byte) (quote byte, err error) {
	n := nameLen(t)
	if n == 0 {
		return 0, p.errf("empty or invalid element name")
	}
	name := t[:n]
	// Entities are rare; one search per tag spares one per value.
	amp := bytes.IndexByte(t, '&') >= 0
	p.set, p.amp = 0, 0
	for i := n; ; {
		i = skipSpace(t, i)
		if i == len(t) {
			return 0, p.openElement(name, false)
		}
		if t[i] == '/' {
			if i+1 != len(t) {
				return 0, p.errf("expected '>' after '/' in <%s>", name)
			}
			return 0, p.openElement(name, true)
		}
		k := i + nameLen(t[i:])
		if k == i {
			return 0, p.errf("invalid name byte %q in <%s>", t[i], name)
		}
		aname := t[i:k]
		if i = skipSpace(t, k); i == len(t) || t[i] != '=' {
			return 0, p.errf("expected '=' after %s in <%s>", aname, name)
		}
		if i = skipSpace(t, i+1); i == len(t) || (t[i] != '"' && t[i] != '\'') {
			return 0, p.errf("attribute value must be quoted in <%s>", name)
		}
		e := bytes.IndexByte(t[i+1:], t[i])
		if e < 0 {
			return t[i], nil
		}
		v := t[i+1 : i+1+e]
		i += e + 2
		a := attrOf(aname)
		if amp && bytes.IndexByte(v, '&') >= 0 {
			var ok bool
			if p.ent, ok = unescape(p.ent[:0], v); !ok {
				return 0, p.errf("bad entity reference in <%s>", name)
			}
			if p.set&(1<<a) == 0 {
				p.amp |= 1 << a
			}
		}
		if p.set&(1<<a) == 0 {
			p.vals[a] = v
			p.set |= 1 << a
		}
	}
}

// unescape appends v to dst with its entity references decoded: the
// five predefined entities and decimal or hex character references.
func unescape(dst, v []byte) ([]byte, bool) {
	for {
		i := bytes.IndexByte(v, '&')
		if i < 0 {
			return append(dst, v...), true
		}
		dst = append(dst, v[:i]...)
		v = v[i+1:]
		j := bytes.IndexByte(v, ';')
		if j < 0 || j > maxEntity {
			return dst, false
		}
		r, ok := entity(v[:j])
		if !ok {
			return dst, false
		}
		dst = utf8.AppendRune(dst, r)
		v = v[j+1:]
	}
}

// entity decodes the name of an entity reference.
func entity(name []byte) (rune, bool) {
	switch string(name) {
	case "amp":
		return '&', true
	case "lt":
		return '<', true
	case "gt":
		return '>', true
	case "quot":
		return '"', true
	case "apos":
		return '\'', true
	}
	digits, base := name, 10
	switch {
	case len(name) >= 2 && name[0] == '#' && (name[1] == 'x' || name[1] == 'X'):
		digits, base = name[2:], 16
	case len(name) >= 1 && name[0] == '#':
		digits = name[1:]
	default:
		return 0, false
	}
	n, err := strconv.ParseUint(string(digits), base, 32)
	return rune(n), err == nil
}

// raw returns attribute a of the current tag with its entities
// decoded, nil when absent; the bytes are valid until the next raw
// call or read.
func (p *parser) raw(a attr) []byte {
	if p.set&(1<<a) == 0 {
		return nil
	}
	if p.amp&(1<<a) == 0 {
		return p.vals[a]
	}
	p.ent, _ = unescape(p.ent[:0], p.vals[a]) // validated when the tag was read
	return p.ent
}

// str returns attribute a as a string, one copy per distinct value
// per document.
func (p *parser) str(a attr) string {
	b := p.raw(a)
	if len(b) == 0 {
		return ""
	}
	if s, ok := p.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	p.strs[s] = s
	return s
}

// int parses attribute a as a base-10 integer; malformed or absent
// numbers degrade to zero rather than killing the monitor.
func (p *parser) int(a attr) int64 {
	b := p.raw(a)
	if len(b) == 0 {
		return 0
	}
	// Plain digits that cannot overflow are the common case; anything
	// else takes strconv's path.
	if len(b) <= 18 {
		var v int64
		for _, c := range b {
			if c < '0' || c > '9' {
				goto slow
			}
			v = v*10 + int64(c-'0')
		}
		return v
	}
slow:
	v, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return 0
	}
	return v
}

func (p *parser) float(a attr) float64 {
	b := p.raw(a)
	if len(b) == 0 {
		return 0
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return 0
	}
	return v
}

func (p *parser) openElement(name []byte, selfClosing bool) error {
	if p.skip > 0 {
		if !selfClosing {
			p.skip++
		}
		return nil
	}
	el := elemOf(name)
	if el == elemNone {
		if !selfClosing {
			p.skip = 1
		}
		return nil
	}
	parent := elemNone
	if len(p.stk) > 0 {
		parent = p.stk[len(p.stk)-1]
	}
	if parents[el]&(1<<parent) == 0 {
		if el == elemReport {
			return p.errf("GANGLIA_XML must be the document root")
		}
		return p.errf("%s inside <%s>", name, elemNames[parent])
	}
	p.start(el)
	if selfClosing {
		p.end(el)
		return nil
	}
	p.stk = append(p.stk, el)
	return nil
}

func (p *parser) closeElement(name []byte) error {
	if p.skip > 0 {
		p.skip--
		return nil
	}
	if len(p.stk) == 0 {
		return p.errf("unmatched </%s>", name)
	}
	top := p.stk[len(p.stk)-1]
	if string(name) != elemNames[top] {
		return p.errf("</%s> closes <%s>", name, elemNames[top])
	}
	p.stk = p.stk[:len(p.stk)-1]
	p.end(top)
	return nil
}

// start delivers the event an element's start tag carries.
func (p *parser) start(el elem) {
	h := p.h
	switch el {
	case elemReport:
		if h.StartReport != nil {
			h.StartReport(p.str(attrVersion), p.str(attrSource))
		}
	case elemGrid:
		if h.StartGrid != nil {
			h.StartGrid(p.str(attrName), p.str(attrAuthority), p.int(attrLocaltime))
		}
	case elemCluster:
		if h.StartCluster != nil {
			h.StartCluster(p.str(attrName), p.str(attrOwner), p.str(attrURL), p.int(attrLocaltime))
		}
	case elemHost:
		if h.StartHost != nil {
			h.StartHost(Host{
				Name:     p.str(attrName),
				IP:       p.str(attrIP),
				Reported: p.int(attrReported),
				TN:       uint32(p.int(attrTN)),
				TMAX:     uint32(p.int(attrTMAX)),
				DMAX:     uint32(p.int(attrDMAX)),
			})
		}
	case elemMetric:
		if h.Metric != nil {
			typ := metric.ParseType(string(p.raw(attrType)))
			var val metric.Value
			if typ.Numeric() {
				val = metric.NewNumber(typ, p.float(attrVal))
			} else {
				val = metric.NewTyped(typ, p.str(attrVal))
			}
			h.Metric(metric.Metric{
				Name:   p.str(attrName),
				Val:    val,
				Units:  p.str(attrUnits),
				Slope:  metric.ParseSlope(string(p.raw(attrSlope))),
				TN:     uint32(p.int(attrTN)),
				TMAX:   uint32(p.int(attrTMAX)),
				DMAX:   uint32(p.int(attrDMAX)),
				Source: p.str(attrSource),
			})
		}
	case elemHosts:
		if h.SummaryHosts != nil {
			h.SummaryHosts(uint32(p.int(attrUp)), uint32(p.int(attrDown)))
		}
	case elemMetrics:
		if h.SummaryMetric != nil {
			h.SummaryMetric(summary.Metric{
				Name:  p.str(attrName),
				Sum:   p.float(attrSum),
				SumSq: p.float(attrSumSq),
				Num:   uint32(p.int(attrNum)),
				Type:  metric.ParseType(string(p.raw(attrType))),
				Units: p.str(attrUnits),
			})
		}
	case elemSourceHealth:
		if h.SourceHealth != nil {
			h.SourceHealth(SourceHealth{
				Name:       p.str(attrName),
				Status:     p.str(attrStatus),
				ActiveAddr: p.str(attrActive),
				DownSince:  p.int(attrDownSince),
				LastError:  p.str(attrLastError),
			})
		}
	case elemHistory:
		if h.StartHistory != nil {
			h.StartHistory(History{
				Cluster: p.str(attrCluster),
				Host:    p.str(attrHost),
				Metric:  p.str(attrMetric),
				CF:      p.str(attrCF),
				Step:    p.int(attrStep),
			})
		}
	case elemPoint:
		if h.HistoryPoint != nil {
			h.HistoryPoint(HistoryPoint{Time: p.int(attrT), Value: parseHistoryValue(p.raw(attrV))})
		}
	}
}

// end delivers the event that closes an element.
func (p *parser) end(el elem) {
	h := p.h
	switch el {
	case elemReport:
		p.rootClosed = true
		if h.EndReport != nil {
			h.EndReport()
		}
	case elemGrid:
		if h.EndGrid != nil {
			h.EndGrid()
		}
	case elemCluster:
		if h.EndCluster != nil {
			h.EndCluster()
		}
	case elemHost:
		if h.EndHost != nil {
			h.EndHost()
		}
	case elemHistory:
		if h.EndHistory != nil {
			h.EndHistory()
		}
	}
}

// ErrNoDocument is returned by Parse when the input holds no
// GANGLIA_XML document.
var ErrNoDocument = errors.New("gxml: no GANGLIA_XML document")

// Parse reads a complete document into a Report tree.
func Parse(r io.Reader) (*Report, error) {
	var (
		rep     *Report
		gridStk []*Grid
		curClu  *Cluster
		curHost *Host
		curHist *History
		curSumm *summary.Summary // summary under construction for innermost grid/cluster
		summFor any              // the *Grid or *Cluster curSumm belongs to
	)
	attach := func(s *summary.Summary, owner any) {
		switch o := owner.(type) {
		case *Grid:
			o.Summary = s
		case *Cluster:
			o.Summary = s
		}
	}
	h := &Handler{
		StartReport: func(version, source string) {
			rep = &Report{Version: version, Source: source}
		},
		StartGrid: func(name, authority string, lt int64) {
			g := &Grid{Name: name, Authority: authority, LocalTime: lt}
			if len(gridStk) > 0 {
				parent := gridStk[len(gridStk)-1]
				parent.Grids = append(parent.Grids, g)
			} else {
				rep.Grids = append(rep.Grids, g)
			}
			gridStk = append(gridStk, g)
			curSumm, summFor = nil, nil
		},
		EndGrid: func() {
			g := gridStk[len(gridStk)-1]
			if curSumm != nil && summFor == any(g) {
				attach(curSumm, g)
				curSumm, summFor = nil, nil
			}
			gridStk = gridStk[:len(gridStk)-1]
		},
		StartCluster: func(name, owner, url string, lt int64) {
			curClu = &Cluster{Name: name, Owner: owner, URL: url, LocalTime: lt}
			if len(gridStk) > 0 {
				g := gridStk[len(gridStk)-1]
				g.Clusters = append(g.Clusters, curClu)
			} else {
				rep.Clusters = append(rep.Clusters, curClu)
			}
			curSumm, summFor = nil, nil
		},
		EndCluster: func() {
			if curSumm != nil && summFor == any(curClu) {
				attach(curSumm, curClu)
				curSumm, summFor = nil, nil
			}
			curClu = nil
		},
		StartHost: func(hh Host) {
			h := hh
			curHost = &h
			curClu.Hosts = append(curClu.Hosts, curHost)
		},
		EndHost: func() { curHost = nil },
		Metric: func(m metric.Metric) {
			curHost.Metrics = append(curHost.Metrics, m)
		},
		SummaryHosts: func(up, down uint32) {
			s, owner := ensureSummary(curClu, gridStk, curSumm, summFor)
			s.HostsUp, s.HostsDown = up, down
			curSumm, summFor = s, owner
		},
		SummaryMetric: func(sm summary.Metric) {
			s, owner := ensureSummary(curClu, gridStk, curSumm, summFor)
			s.AddReduced(sm)
			curSumm, summFor = s, owner
		},
		SourceHealth: func(sh SourceHealth) {
			if len(gridStk) > 0 {
				g := gridStk[len(gridStk)-1]
				shh := sh
				g.Health = append(g.Health, &shh)
			}
		},
		StartHistory: func(h History) {
			hh := h
			curHist = &hh
			rep.Histories = append(rep.Histories, curHist)
		},
		EndHistory: func() { curHist = nil },
		HistoryPoint: func(p HistoryPoint) {
			curHist.Points = append(curHist.Points, p)
		},
	}
	if err := ParseStream(r, h); err != nil {
		return nil, err
	}
	if rep == nil {
		return nil, ErrNoDocument
	}
	return rep, nil
}

// ensureSummary locates (or creates) the summary being built for the
// innermost open cluster or grid.
func ensureSummary(curClu *Cluster, gridStk []*Grid, cur *summary.Summary, owner any) (*summary.Summary, any) {
	var want any
	if curClu != nil {
		want = curClu
	} else if len(gridStk) > 0 {
		want = gridStk[len(gridStk)-1]
	}
	if cur != nil && owner == want {
		return cur, owner
	}
	return summary.New(), want
}
