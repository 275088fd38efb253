package gmetad

import (
	"time"

	"ganglia/internal/gxml"
	"ganglia/internal/rrd"
	"ganglia/internal/summary"
)

// SummaryHost is the pseudo-host archive key segment for cluster and
// grid summary series, e.g. "Meteor/__summary__/load_one".
const SummaryHost = "__summary__"

// archiveSource writes one polling round's samples into the round-robin
// pool. The archive scope is the crux of the two designs:
//
//   - 1-level: every ancestor keeps full-resolution archives for every
//     host below it ("every monitor between a cluster and the root will
//     keep identical metric archives for that cluster", §2.1) — so the
//     whole flattened cluster index is archived.
//   - N-level: full archives only for local (gmond) clusters this node
//     is authoritative for; remote grids contribute only their O(m)
//     summary series ("nodes in the N-level monitoring tree keep only
//     summary archives of descendants rather than full duplicates",
//     §3.3).
func (g *Gmetad) archiveSource(data *sourceData, now time.Time) {
	var buf []rrd.Sample // one host's samples, reused host after host
	fullDetail := g.cfg.Mode == OneLevel || data.kind == SourceGmond
	if fullDetail {
		for _, cname := range data.clusterOrder {
			c := data.clusters[cname]
			for _, hname := range c.order {
				h := c.hosts[hname]
				buf = g.archiveHost(buf, cname, h, now, !h.Up())
			}
			buf = g.archiveSummary(buf, cname, c.summary, now, false)
		}
	}
	// The source-level summary series is kept in both designs: the
	// 1-level web frontend recomputes it per page (Table 1), but the
	// daemon still archives grid totals.
	if data.kind == SourceGmetad {
		g.archiveSummary(buf, data.name, data.summary, now, false)
	}
	g.syncArchiveContention()
}

// archiveHost writes one host's numeric metrics, or zeros in their
// place, in one pool update, collecting them in buf. A down host gets
// explicit zero records — "if a monitored node has failed, it keeps a
// 'zero' record during the downtime, aiding time-of-death forensic
// analysis" (§2.1).
func (g *Gmetad) archiveHost(buf []rrd.Sample, cluster string, h *gxml.Host, now time.Time, zero bool) []rrd.Sample {
	buf = buf[:0]
	for i := range h.Metrics {
		m := &h.Metrics[i]
		v, ok := m.Val.Float64()
		if !ok {
			continue // non-numeric metrics are not archived
		}
		if zero {
			v = 0
		}
		buf = append(buf, rrd.Sample{Metric: m.Name, Value: v})
	}
	// Rejections (ErrPastUpdate) are expected when two polls land within
	// one second; those samples are simply coalesced away.
	g.pool.UpdateHost(cluster, h.Name, now, buf)
	return buf
}

// archiveSummary writes a reduction's SUM series, or zeros in their
// place, under the __summary__ pseudo-host.
func (g *Gmetad) archiveSummary(buf []rrd.Sample, scope string, s *summary.Summary, now time.Time, zero bool) []rrd.Sample {
	if s == nil {
		return buf
	}
	buf = buf[:0]
	for _, name := range s.Names() {
		v := s.Metrics[name].Sum
		if zero {
			v = 0
		}
		buf = append(buf, rrd.Sample{Metric: name, Value: v})
	}
	g.pool.UpdateHost(scope, SummaryHost, now, buf)
	return buf
}

// zeroFill writes zero records for every series a source feeds, used
// while the source is unreachable.
func (g *Gmetad) zeroFill(data *sourceData, now time.Time) {
	var buf []rrd.Sample
	fullDetail := g.cfg.Mode == OneLevel || data.kind == SourceGmond
	if fullDetail {
		for _, cname := range data.clusterOrder {
			c := data.clusters[cname]
			for _, hname := range c.order {
				buf = g.archiveHost(buf, cname, c.hosts[hname], now, true)
			}
			buf = g.archiveSummary(buf, cname, c.summary, now, true)
		}
	}
	if data.kind == SourceGmetad {
		g.archiveSummary(buf, data.name, data.summary, now, true)
	}
}
