package rrd

// The archive engine as it stood before instants became integer Unix
// seconds: every Database operation on time.Time arithmetic, five
// separately allocated archives per series. It is kept verbatim (only
// renamed, with the identity helper rate0 inlined) as the reference
// FuzzDatabaseDifferential compares the production engine against,
// operation by operation and byte for byte.

import (
	"fmt"
	"math"
	"time"
)

type oracleArchive struct {
	spec   ArchiveSpec
	factor int // spec.Step / db.Step

	// ring is this archive's window into the database's columnar slab:
	// a sub-slice, not a private allocation. NaN = unknown.
	ring []float64
	// end is the exclusive end time of the most recent row; the ring
	// is full once wrapped is true.
	end     time.Time
	next    int
	wrapped bool

	// accumulation of primary points toward the current row
	accum   float64
	accumN  int
	unknown int
}

// oracleDB is one metric's history. It is not safe for concurrent use;
// gmetad guards each database with its pool's locking discipline.
type oracleDB struct {
	spec Spec

	started    bool
	lastUpdate time.Time
	lastRaw    float64 // previous raw value, for Counter rate
	pdpStart   time.Time
	pdpSum     float64
	pdpKnown   time.Duration

	// slab is the columnar row store: one contiguous allocation holding
	// every archive's ring as a sub-slice. The checkpoint format reads
	// and writes it as a single column (see persist.go), and a pool of
	// many small databases makes one allocation each instead of one per
	// archive.
	slab     []float64
	archives []*oracleArchive
	updates  uint64

	// known is set once archives[0] has stored at least one valid
	// (non-NaN) row; until then Last is meaningless and Pool.Last
	// reports (0, false).
	known bool
}

// newOracle creates an oracleDB. The first Update establishes the time origin.
func newOracle(spec Spec) (*oracleDB, error) {
	if spec.Step <= 0 {
		return nil, fmt.Errorf("%w: non-positive step", ErrBadSpec)
	}
	if spec.Heartbeat == 0 {
		spec.Heartbeat = 4 * spec.Step
	}
	if spec.Heartbeat < spec.Step {
		return nil, fmt.Errorf("%w: heartbeat shorter than step", ErrBadSpec)
	}
	if len(spec.Archives) == 0 {
		return nil, fmt.Errorf("%w: no archives", ErrBadSpec)
	}
	total := 0
	for _, as := range spec.Archives {
		if as.Rows <= 0 {
			return nil, fmt.Errorf("%w: archive rows %d", ErrBadSpec, as.Rows)
		}
		if as.Step <= 0 || as.Step%spec.Step != 0 {
			return nil, fmt.Errorf("%w: archive step %v not a multiple of %v",
				ErrBadSpec, as.Step, spec.Step)
		}
		total += as.Rows
	}
	db := &oracleDB{spec: spec, slab: make([]float64, total)}
	for i := range db.slab {
		db.slab[i] = math.NaN()
	}
	off := 0
	for _, as := range spec.Archives {
		if as.XFF == 0 {
			as.XFF = 0.5
		}
		a := &oracleArchive{
			spec:   as,
			factor: int(as.Step / spec.Step),
			ring:   db.slab[off : off+as.Rows : off+as.Rows],
		}
		off += as.Rows
		db.archives = append(db.archives, a)
	}
	return db, nil
}

// Step returns the primary data point length.
func (d *oracleDB) Step() time.Duration { return d.spec.Step }

// Updates returns the number of successful updates, the unit of archive
// work the experiment harness accounts.
func (d *oracleDB) Updates() uint64 { return d.updates }

// Update folds one sample at time t into the database.
func (d *oracleDB) Update(t time.Time, v float64) error {
	t = t.Truncate(time.Second)
	if !d.started {
		d.started = true
		d.lastUpdate = t
		d.lastRaw = v
		d.pdpStart = t.Truncate(d.spec.Step)
		d.updates++
		// The first sample seeds the open PDP from pdpStart to t.
		if !math.IsNaN(v) && d.spec.Type == Gauge {
			elapsed := t.Sub(d.pdpStart)
			d.pdpSum += v * elapsed.Seconds()
			d.pdpKnown += elapsed
		}
		return nil
	}
	if !t.After(d.lastUpdate) {
		return fmt.Errorf("%w: %v <= %v", ErrPastUpdate, t, d.lastUpdate)
	}

	interval := t.Sub(d.lastUpdate)
	var r float64
	known := interval <= d.spec.Heartbeat && !math.IsNaN(v)
	if known {
		switch d.spec.Type {
		case Gauge:
			r = v
		case Counter:
			delta := v - d.lastRaw
			if delta < 0 {
				known = false // counter reset
			} else {
				r = delta / interval.Seconds()
			}
		}
	}

	// Walk PDP boundaries between lastUpdate and t, distributing the
	// interval's rate across them.
	cur := d.lastUpdate
	for cur.Before(t) {
		pdpEnd := d.pdpStart.Add(d.spec.Step)
		segEnd := t
		if pdpEnd.Before(segEnd) {
			segEnd = pdpEnd
		}
		seg := segEnd.Sub(cur)
		if known {
			d.pdpSum += r * seg.Seconds()
			d.pdpKnown += seg
		}
		cur = segEnd
		if cur.Equal(pdpEnd) {
			d.closePDP(pdpEnd)
		}
	}

	d.lastUpdate = t
	d.lastRaw = v
	d.updates++
	return nil
}

// closePDP finalizes the primary data point ending at end and feeds it
// to every archive.
func (d *oracleDB) closePDP(end time.Time) {
	var primary float64
	if d.pdpKnown*2 >= d.spec.Step { // at least half the step known
		primary = d.pdpSum / d.pdpKnown.Seconds()
	} else {
		primary = math.NaN()
	}
	d.pdpSum = 0
	d.pdpKnown = 0
	d.pdpStart = end
	for i, a := range d.archives {
		if emitted, row := a.push(primary, end); i == 0 && emitted && !math.IsNaN(row) {
			d.known = true
		}
	}
}

// push accumulates one primary point into the archive's current window,
// emitting a row when the window completes; it reports whether a row
// was emitted and its value.
func (a *oracleArchive) push(v float64, end time.Time) (bool, float64) {
	if math.IsNaN(v) {
		a.unknown++
	} else {
		switch a.spec.CF {
		case Average:
			a.accum += v
		case Min:
			if a.accumN == 0 || v < a.accum {
				a.accum = v
			}
		case Max:
			if a.accumN == 0 || v > a.accum {
				a.accum = v
			}
		case Last:
			a.accum = v
		}
		a.accumN++
	}
	if a.accumN+a.unknown < a.factor {
		return false, 0
	}
	var row float64
	frac := float64(a.unknown) / float64(a.factor)
	if a.accumN == 0 || frac > a.spec.XFF {
		row = math.NaN()
	} else if a.spec.CF == Average {
		row = a.accum / float64(a.accumN)
	} else {
		row = a.accum
	}
	a.ring[a.next] = row
	a.next++
	if a.next == len(a.ring) {
		a.next = 0
		a.wrapped = true
	}
	a.end = end
	a.accum, a.accumN, a.unknown = 0, 0, 0
	return true, row
}

// rows returns the number of valid rows currently stored.
func (a *oracleArchive) rows() int {
	if a.wrapped {
		return len(a.ring)
	}
	return a.next
}

// fetchArchives returns the archives a cf query may be served from:
// the cf-matching ones when any holds data, otherwise every populated
// archive — a layout provisioned without e.g. MAX rollups (the stock
// Ganglia layout is AVERAGE-only) still answers cf=MAX by
// re-consolidating the rows it does have at query time.
func (d *oracleDB) fetchArchives(cf CF) []*oracleArchive {
	var match, any []*oracleArchive
	for _, a := range d.archives {
		if a.rows() == 0 {
			continue
		}
		if a.spec.CF == cf {
			match = append(match, a)
		}
		any = append(any, a)
	}
	if len(match) > 0 {
		return match
	}
	return any
}

// Fetch returns the consolidated points with function cf covering
// [start, end], from the highest-resolution archive whose retention
// reaches back to start. This is the multiple-time-scale query of
// paper §2.1: asking about last hour hits the fine archive, asking
// about last year the coarse one. When no archive was provisioned
// with cf, the rows come from the finest archive that exists (see
// fetchArchives).
func (d *oracleDB) Fetch(cf CF, start, end time.Time) []Point {
	var chosen *oracleArchive
	var chosenOldest time.Time
	for _, a := range d.fetchArchives(cf) {
		oldest := a.end.Add(-time.Duration(a.rows()) * a.spec.Step)
		if !oldest.After(start) {
			chosen = a
			break // finest archive that reaches back to start
		}
		// No archive may cover start (it predates all retention);
		// remember the one whose stored data reaches back furthest,
		// preferring the finer archive on ties.
		if chosen == nil || oldest.Before(chosenOldest) {
			chosen, chosenOldest = a, oldest
		}
	}
	if chosen == nil {
		return nil
	}
	var pts []Point
	n := chosen.rows()
	first := chosen.next - n
	for i := 0; i < n; i++ {
		idx := first + i
		if idx < 0 {
			idx += len(chosen.ring)
		}
		ts := chosen.end.Add(-time.Duration(n-1-i) * chosen.spec.Step)
		if ts.Before(start) || ts.After(end) {
			continue
		}
		pts = append(pts, Point{Time: ts, Value: chosen.ring[idx]})
	}
	return pts
}

// FetchRange is Fetch with query-time consolidation: the archive rows
// covering [start, end] are re-consolidated into buckets of length
// step, each bucket reported at its (step-grid-aligned) end time. This
// is how one archive layout answers the "wide range of time scale
// queries" of paper §2.1 at arbitrary granularity — the stored rollups
// give the base resolution, the query picks the display resolution.
//
// A non-positive step means "no re-consolidation" and returns the
// archive rows as-is, exactly as Fetch would. A start after end returns
// nil. A step coarser than the whole retained range degenerates to a
// single bucket. Buckets whose every source row is unknown yield NaN
// points (the query asked about a window; the answer is "unknown", not
// silence), but ranges with no stored rows at all yield no points.
//
// A zero start or end defaults to the matching edge of the finest
// cf-archive's retained window, so FetchRange(cf, zero, zero, 0)
// reproduces FetchRecent(cf) exactly — the property the history query
// engine's equivalence oracle rests on.
func (d *oracleDB) FetchRange(cf CF, start, end time.Time, step time.Duration) []Point {
	if start.IsZero() || end.IsZero() {
		var fin *oracleArchive
		if arcs := d.fetchArchives(cf); len(arcs) > 0 {
			fin = arcs[0]
		}
		if fin == nil {
			return nil
		}
		if end.IsZero() {
			end = fin.end
		}
		if start.IsZero() {
			start = fin.end.Add(-time.Duration(fin.rows()-1) * fin.spec.Step)
		}
	}
	if start.After(end) {
		return nil
	}
	src := d.Fetch(cf, start, end)
	if step <= 0 || len(src) == 0 {
		return src
	}
	var (
		out  []Point
		open bool
		bEnd time.Time
		acc  float64
		n    int
	)
	flush := func() {
		if !open {
			return
		}
		v := math.NaN()
		if n > 0 {
			if cf == Average {
				v = acc / float64(n)
			} else {
				v = acc
			}
		}
		out = append(out, Point{Time: bEnd, Value: v})
		open, acc, n = false, 0, 0
	}
	for _, p := range src {
		// Bucket rows by the step grid: a row at time t belongs to the
		// bucket ending at the smallest grid point >= t.
		be := p.Time.Truncate(step)
		if be.Before(p.Time) {
			be = be.Add(step)
		}
		if !open || !be.Equal(bEnd) {
			flush()
			open, bEnd = true, be
		}
		if math.IsNaN(p.Value) {
			continue
		}
		switch cf {
		case Average:
			acc += p.Value
		case Min:
			if n == 0 || p.Value < acc {
				acc = p.Value
			}
		case Max:
			if n == 0 || p.Value > acc {
				acc = p.Value
			}
		case Last:
			acc = p.Value
		}
		n++
	}
	flush()
	return out
}

// FetchRecent returns the entire contents of the finest archive with
// consolidation function cf — the highest-resolution window available,
// which is what an interactive history view wants. Like Fetch, a cf
// no archive was provisioned with is served from the finest archive
// that exists.
func (d *oracleDB) FetchRecent(cf CF) []Point {
	for _, a := range d.fetchArchives(cf) {
		end := a.end
		start := end.Add(-time.Duration(a.rows()-1) * a.spec.Step)
		return d.Fetch(cf, start, end)
	}
	return nil
}

// Last returns the most recent consolidated value from the finest
// archive, or NaN if nothing has been stored.
func (d *oracleDB) Last() float64 {
	a := d.archives[0]
	if a.rows() == 0 {
		return math.NaN()
	}
	idx := a.next - 1
	if idx < 0 {
		idx += len(a.ring)
	}
	return a.ring[idx]
}

// MemoryRows returns the total rows across archives — constant for the
// life of the database, demonstrating the "do not grow in size over
// time" property.
func (d *oracleDB) MemoryRows() int {
	n := 0
	for _, a := range d.archives {
		n += len(a.ring)
	}
	return n
}

// snapshot captures the database state.
func (d *oracleDB) snapshot() dbSnapshot {
	s := dbSnapshot{
		Spec:       d.spec,
		Started:    d.started,
		LastUpdate: d.lastUpdate,
		LastRaw:    d.lastRaw,
		PDPStart:   d.pdpStart,
		PDPSum:     d.pdpSum,
		PDPKnown:   d.pdpKnown,
		Updates:    d.updates,
		Slab:       append([]float64(nil), d.slab...),
		Known:      d.known,
	}
	for _, a := range d.archives {
		s.Archives = append(s.Archives, archSnapshot{
			End:     a.end,
			Next:    a.next,
			Wrapped: a.wrapped,
			Accum:   a.accum,
			AccumN:  a.accumN,
			Unknown: a.unknown,
		})
	}
	return s
}
