package gxml

// The byte-at-a-time parser that ParseStream replaced, kept verbatim
// apart from renames as the reference the scanner is checked against:
// FuzzParseDifferential feeds both the same bytes and requires the
// same verdict and the same Handler events.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ganglia/internal/metric"
	"ganglia/internal/summary"
)

type oracleAttr struct {
	name  string
	value string
}

type oracleParser struct {
	br   *bufio.Reader
	h    *Handler
	off  int64
	stk  []string
	skip int // depth inside an unknown element's subtree
	atts []oracleAttr
	// rootClosed records that a complete GANGLIA_XML element was seen
	// (including the self-closing form).
	rootClosed bool
}

func (p *oracleParser) errf(format string, args ...any) error {
	return &SyntaxError{Offset: p.off, Msg: fmt.Sprintf(format, args...)}
}

func (p *oracleParser) readByte() (byte, error) {
	c, err := p.br.ReadByte()
	if err == nil {
		p.off++
	}
	return c, err
}

// oracleParseStream reads one GANGLIA_XML document from r, invoking h's
// callbacks as elements are encountered. It validates nesting against
// the Ganglia DTD and fails on truncated or malformed input. Unknown
// elements (and their subtrees) are skipped for forward compatibility.
func oracleParseStream(r io.Reader, h *Handler) error {
	p := &oracleParser{br: bufio.NewReaderSize(r, 32*1024), h: h}
	for {
		c, err := p.readByte()
		if err == io.EOF {
			if len(p.stk) != 0 {
				return p.errf("unexpected EOF inside <%s>", p.stk[len(p.stk)-1])
			}
			if !p.rootClosed {
				return p.errf("empty document")
			}
			return nil
		}
		if err != nil {
			return err
		}
		if c != '<' {
			// The Ganglia dialect has no element text; tolerate and
			// skip whatever appears between tags (whitespace in
			// practice).
			continue
		}
		c, err = p.readByte()
		if err != nil {
			return p.errf("truncated tag")
		}
		switch c {
		case '?':
			if err := p.skipUntil("?>"); err != nil {
				return err
			}
		case '!':
			if err := p.skipDeclaration(); err != nil {
				return err
			}
		case '/':
			name, err := p.readName('>')
			if err != nil {
				return err
			}
			if err := p.skipToGT(); err != nil {
				return err
			}
			if err := p.closeElement(name); err != nil {
				return err
			}
		default:
			if err := p.br.UnreadByte(); err != nil {
				return err
			}
			p.off--
			selfClosing, name, err := p.parseStartTag()
			if err != nil {
				return err
			}
			if err := p.openElement(name, selfClosing); err != nil {
				return err
			}
		}
	}
}

// skipUntil discards input through the first occurrence of the
// two-byte terminator t.
func (p *oracleParser) skipUntil(t string) error {
	var prev byte
	for {
		c, err := p.readByte()
		if err != nil {
			return p.errf("truncated %q section", t)
		}
		if prev == t[0] && c == t[1] {
			return nil
		}
		prev = c
	}
}

// skipDeclaration discards a <!...> construct: a comment (which may
// contain '>') or a DOCTYPE possibly carrying an internal subset in
// square brackets.
func (p *oracleParser) skipDeclaration() error {
	// Check for a comment: we have consumed "<!", the next two bytes
	// may be "--".
	b, err := p.br.Peek(2)
	if err == nil && b[0] == '-' && b[1] == '-' {
		p.br.Discard(2)
		p.off += 2
		var a, bb byte
		for {
			c, err := p.readByte()
			if err != nil {
				return p.errf("truncated comment")
			}
			if a == '-' && bb == '-' && c == '>' {
				return nil
			}
			a, bb = bb, c
		}
	}
	depth := 0
	for {
		c, err := p.readByte()
		if err != nil {
			return p.errf("truncated declaration")
		}
		switch c {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				return nil
			}
		}
	}
}

func (p *oracleParser) skipToGT() error {
	for {
		c, err := p.readByte()
		if err != nil {
			return p.errf("truncated end tag")
		}
		if c == '>' {
			return nil
		}
		if !oracleIsSpace(c) {
			return p.errf("unexpected %q in end tag", c)
		}
	}
}

func oracleIsSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func oracleIsNameByte(c byte) bool {
	return c == '_' || c == '-' || c == '.' || c == ':' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// readName accumulates a tag or attribute name; stop is an additional
// terminator the caller will handle (the byte is unread).
func (p *oracleParser) readName(stop byte) (string, error) {
	var sb strings.Builder
	for {
		c, err := p.readByte()
		if err != nil {
			return "", p.errf("truncated name")
		}
		if oracleIsNameByte(c) {
			sb.WriteByte(c)
			continue
		}
		if c == stop || oracleIsSpace(c) || c == '/' || c == '>' || c == '=' {
			if err := p.br.UnreadByte(); err != nil {
				return "", err
			}
			p.off--
			if sb.Len() == 0 {
				return "", p.errf("empty name")
			}
			return sb.String(), nil
		}
		return "", p.errf("invalid name byte %q", c)
	}
}

// parseStartTag parses "<NAME attr=.. ...>" or "<NAME .../>"; the '<'
// has been consumed.
func (p *oracleParser) parseStartTag() (selfClosing bool, name string, err error) {
	name, err = p.readName('>')
	if err != nil {
		return false, "", err
	}
	p.atts = p.atts[:0]
	for {
		c, err := p.readByte()
		if err != nil {
			return false, "", p.errf("truncated tag <%s>", name)
		}
		switch {
		case oracleIsSpace(c):
			continue
		case c == '>':
			return false, name, nil
		case c == '/':
			c, err = p.readByte()
			if err != nil || c != '>' {
				return false, "", p.errf("expected '>' after '/' in <%s>", name)
			}
			return true, name, nil
		default:
			if err := p.br.UnreadByte(); err != nil {
				return false, "", err
			}
			p.off--
			aname, err := p.readName('=')
			if err != nil {
				return false, "", err
			}
			if err := p.expectByte('='); err != nil {
				return false, "", err
			}
			aval, err := p.readAttrValue()
			if err != nil {
				return false, "", err
			}
			p.atts = append(p.atts, oracleAttr{aname, aval})
		}
	}
}

func (p *oracleParser) expectByte(want byte) error {
	for {
		c, err := p.readByte()
		if err != nil {
			return p.errf("truncated input, expected %q", want)
		}
		if c == want {
			return nil
		}
		if !oracleIsSpace(c) {
			return p.errf("expected %q, found %q", want, c)
		}
	}
}

func (p *oracleParser) readAttrValue() (string, error) {
	var quote byte
	for {
		c, err := p.readByte()
		if err != nil {
			return "", p.errf("truncated attribute value")
		}
		if oracleIsSpace(c) {
			continue
		}
		if c == '"' || c == '\'' {
			quote = c
			break
		}
		return "", p.errf("attribute value must be quoted, found %q", c)
	}
	var sb strings.Builder
	for {
		c, err := p.readByte()
		if err != nil {
			return "", p.errf("truncated attribute value")
		}
		if c == quote {
			return sb.String(), nil
		}
		if c == '&' {
			r, err := p.readEntity()
			if err != nil {
				return "", err
			}
			sb.WriteRune(r)
			continue
		}
		sb.WriteByte(c)
	}
}

// readEntity decodes an entity reference after the '&'.
func (p *oracleParser) readEntity() (rune, error) {
	var sb strings.Builder
	for {
		c, err := p.readByte()
		if err != nil {
			return 0, p.errf("truncated entity")
		}
		if c == ';' {
			break
		}
		if sb.Len() > 8 {
			return 0, p.errf("entity too long")
		}
		sb.WriteByte(c)
	}
	ent := sb.String()
	switch ent {
	case "amp":
		return '&', nil
	case "lt":
		return '<', nil
	case "gt":
		return '>', nil
	case "quot":
		return '"', nil
	case "apos":
		return '\'', nil
	}
	if strings.HasPrefix(ent, "#x") || strings.HasPrefix(ent, "#X") {
		n, err := strconv.ParseUint(ent[2:], 16, 32)
		if err != nil {
			return 0, p.errf("bad character reference &%s;", ent)
		}
		return rune(n), nil
	}
	if strings.HasPrefix(ent, "#") {
		n, err := strconv.ParseUint(ent[1:], 10, 32)
		if err != nil {
			return 0, p.errf("bad character reference &%s;", ent)
		}
		return rune(n), nil
	}
	return 0, p.errf("unknown entity &%s;", ent)
}

func (p *oracleParser) findAttr(name string) string {
	for i := range p.atts {
		if p.atts[i].name == name {
			return p.atts[i].value
		}
	}
	return ""
}

func (p *oracleParser) intAttr(name string) int64 {
	v, err := strconv.ParseInt(p.findAttr(name), 10, 64)
	if err != nil {
		return 0
	}
	return v
}

func (p *oracleParser) floatAttr(name string) float64 {
	v, err := strconv.ParseFloat(p.findAttr(name), 64)
	if err != nil {
		return 0
	}
	return v
}

func (p *oracleParser) parent() string {
	if len(p.stk) == 0 {
		return ""
	}
	return p.stk[len(p.stk)-1]
}

func (p *oracleParser) openElement(name string, selfClosing bool) error {
	if p.skip > 0 {
		if !selfClosing {
			p.skip++
		}
		return nil
	}
	parent := p.parent()
	known := true
	switch name {
	case "GANGLIA_XML":
		if parent != "" {
			return p.errf("GANGLIA_XML must be the document root")
		}
		if p.h.StartReport != nil {
			p.h.StartReport(p.findAttr("VERSION"), p.findAttr("SOURCE"))
		}
	case "GRID":
		if parent != "GANGLIA_XML" && parent != "GRID" {
			return p.errf("GRID inside <%s>", parent)
		}
		if p.h.StartGrid != nil {
			p.h.StartGrid(p.findAttr("NAME"), p.findAttr("AUTHORITY"), p.intAttr("LOCALTIME"))
		}
	case "CLUSTER":
		if parent != "GANGLIA_XML" && parent != "GRID" {
			return p.errf("CLUSTER inside <%s>", parent)
		}
		if p.h.StartCluster != nil {
			p.h.StartCluster(p.findAttr("NAME"), p.findAttr("OWNER"),
				p.findAttr("URL"), p.intAttr("LOCALTIME"))
		}
	case "HOST":
		if parent != "CLUSTER" {
			return p.errf("HOST inside <%s>", parent)
		}
		if p.h.StartHost != nil {
			p.h.StartHost(Host{
				Name:     p.findAttr("NAME"),
				IP:       p.findAttr("IP"),
				Reported: p.intAttr("REPORTED"),
				TN:       uint32(p.intAttr("TN")),
				TMAX:     uint32(p.intAttr("TMAX")),
				DMAX:     uint32(p.intAttr("DMAX")),
			})
		}
	case "METRIC":
		if parent != "HOST" {
			return p.errf("METRIC inside <%s>", parent)
		}
		if p.h.Metric != nil {
			typ := metric.ParseType(p.findAttr("TYPE"))
			p.h.Metric(metric.Metric{
				Name:   p.findAttr("NAME"),
				Val:    metric.NewTyped(typ, p.findAttr("VAL")),
				Units:  p.findAttr("UNITS"),
				Slope:  metric.ParseSlope(p.findAttr("SLOPE")),
				TN:     uint32(p.intAttr("TN")),
				TMAX:   uint32(p.intAttr("TMAX")),
				DMAX:   uint32(p.intAttr("DMAX")),
				Source: p.findAttr("SOURCE"),
			})
		}
	case "HOSTS":
		if parent != "GRID" && parent != "CLUSTER" {
			return p.errf("HOSTS inside <%s>", parent)
		}
		if p.h.SummaryHosts != nil {
			p.h.SummaryHosts(uint32(p.intAttr("UP")), uint32(p.intAttr("DOWN")))
		}
	case "METRICS":
		if parent != "GRID" && parent != "CLUSTER" {
			return p.errf("METRICS inside <%s>", parent)
		}
		if p.h.SummaryMetric != nil {
			p.h.SummaryMetric(summary.Metric{
				Name:  p.findAttr("NAME"),
				Sum:   p.floatAttr("SUM"),
				SumSq: p.floatAttr("SUMSQ"),
				Num:   uint32(p.intAttr("NUM")),
				Type:  metric.ParseType(p.findAttr("TYPE")),
				Units: p.findAttr("UNITS"),
			})
		}
	case "SOURCE_HEALTH":
		if parent != "GRID" {
			return p.errf("SOURCE_HEALTH inside <%s>", parent)
		}
		if p.h.SourceHealth != nil {
			p.h.SourceHealth(SourceHealth{
				Name:       p.findAttr("NAME"),
				Status:     p.findAttr("STATUS"),
				ActiveAddr: p.findAttr("ACTIVE"),
				DownSince:  p.intAttr("DOWN_SINCE"),
				LastError:  p.findAttr("LAST_ERROR"),
			})
		}
	case "HISTORY":
		if parent != "GANGLIA_XML" {
			return p.errf("HISTORY inside <%s>", parent)
		}
		if p.h.StartHistory != nil {
			p.h.StartHistory(History{
				Cluster: p.findAttr("CLUSTER"),
				Host:    p.findAttr("HOST"),
				Metric:  p.findAttr("METRIC"),
				CF:      p.findAttr("CF"),
				Step:    p.intAttr("STEP"),
			})
		}
	case "POINT":
		if parent != "HISTORY" {
			return p.errf("POINT inside <%s>", parent)
		}
		if p.h.HistoryPoint != nil {
			p.h.HistoryPoint(HistoryPoint{
				Time:  p.intAttr("T"),
				Value: parseHistoryValue([]byte(p.findAttr("V"))),
			})
		}
	default:
		known = false
	}
	if !known {
		if !selfClosing {
			p.skip = 1
		}
		return nil
	}
	if selfClosing {
		return p.dispatchEnd(name)
	}
	p.stk = append(p.stk, name)
	return nil
}

func (p *oracleParser) closeElement(name string) error {
	if p.skip > 0 {
		p.skip--
		return nil
	}
	if len(p.stk) == 0 {
		return p.errf("unmatched </%s>", name)
	}
	top := p.stk[len(p.stk)-1]
	if top != name {
		return p.errf("</%s> closes <%s>", name, top)
	}
	p.stk = p.stk[:len(p.stk)-1]
	return p.dispatchEnd(name)
}

func (p *oracleParser) dispatchEnd(name string) error {
	switch name {
	case "GANGLIA_XML":
		p.rootClosed = true
		if p.h.EndReport != nil {
			p.h.EndReport()
		}
	case "GRID":
		if p.h.EndGrid != nil {
			p.h.EndGrid()
		}
	case "CLUSTER":
		if p.h.EndCluster != nil {
			p.h.EndCluster()
		}
	case "HOST":
		if p.h.EndHost != nil {
			p.h.EndHost()
		}
	case "HISTORY":
		if p.h.EndHistory != nil {
			p.h.EndHistory()
		}
	}
	return nil
}
