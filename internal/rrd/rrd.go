// Package rrd implements a round-robin time-series database in the
// style of RRDtool, the archive engine behind Ganglia's metric
// histories (paper §2.1).
//
// Each Database holds one stream in a set of fixed-size archives of
// increasing consolidation: full resolution for recent samples,
// progressively coarser rollups for older data. The design is lossy
// "with a bias towards recent data" and archives "do not grow in size
// over time" — we can see a metric's history over the past year, but
// with less resolution than recent behavior.
//
// Samples arriving after a silence longer than the heartbeat are
// preceded by unknown slots; the gmetad layer additionally writes
// explicit zero records for hosts it knows to be down, the paper's
// "time-of-death" forensic aid.
package rrd

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// CF is a consolidation function: how a group of primary data points
// collapses into one coarser archive row.
type CF uint8

// Supported consolidation functions.
const (
	Average CF = iota
	Min
	Max
	Last
)

// String returns the RRDtool spelling of the consolidation function.
func (c CF) String() string {
	switch c {
	case Average:
		return "AVERAGE"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Last:
		return "LAST"
	}
	return fmt.Sprintf("CF(%d)", uint8(c))
}

// DSType is the data-source type.
type DSType uint8

const (
	// Gauge stores sample values as-is (load_one, mem_free).
	Gauge DSType = iota
	// Counter stores the per-second rate of a monotonically increasing
	// counter, tolerating resets by clamping negative rates to unknown.
	Counter
)

// ArchiveSpec describes one round-robin archive.
type ArchiveSpec struct {
	// Step is the consolidation period; it must be a positive multiple
	// of the database step.
	Step time.Duration
	// Rows is the archive capacity; the archive covers Step×Rows of
	// history.
	Rows int
	// CF selects the consolidation function.
	CF CF
	// XFF (x-files factor) is the maximum fraction of the primary data
	// points in a consolidation window that may be unknown while still
	// producing a known row. Zero defaults to 0.5.
	XFF float64
}

// Spec describes a database.
type Spec struct {
	// Step is the primary data point length, a whole number of seconds.
	Step time.Duration
	// Heartbeat is the maximum silence between updates before the
	// intervening interval becomes unknown. Zero defaults to 4×Step.
	Heartbeat time.Duration
	// Type selects gauge or counter semantics; default Gauge.
	Type DSType
	// Archives must be non-empty.
	Archives []ArchiveSpec
}

// DefaultSpec mirrors the archive layout Ganglia provisions per metric:
// 15-second primary points kept for an hour, then progressively coarser
// averages out to a year — the "wide range of time scale queries" of
// paper §2.1.
func DefaultSpec() Spec {
	return Spec{
		Step:      15 * time.Second,
		Heartbeat: 60 * time.Second,
		Archives: []ArchiveSpec{
			{Step: 15 * time.Second, Rows: 240, CF: Average},              // 1 hour
			{Step: 6 * time.Minute, Rows: 240, CF: Average},               // 1 day
			{Step: 42 * time.Minute, Rows: 240, CF: Average},              // 1 week
			{Step: 3 * time.Hour, Rows: 240, CF: Average},                 // 1 month
			{Step: 36*time.Hour + 30*time.Minute, Rows: 240, CF: Average}, // 1 year
		},
	}
}

// Point is one fetched sample.
type Point struct {
	Time  time.Time
	Value float64 // NaN when unknown
}

type archive struct {
	cf     CF
	xff    float64
	step   int64 // ArchiveSpec.Step in seconds
	factor int   // ArchiveSpec.Step / db step

	// ring is this archive's window into the database's columnar slab:
	// a sub-slice, not a private allocation. NaN = unknown.
	ring []float64
	// end is the time of the most recent row, in Unix seconds; the ring
	// is full once wrapped is true.
	end     int64
	next    int
	wrapped bool

	// accumulation of primary points toward the current row
	accum   float64
	accumN  int
	unknown int
}

var (
	// ErrPastUpdate is returned when an update is not newer than the
	// previous one.
	ErrPastUpdate = errors.New("rrd: update not after previous update")
	// ErrBadSpec is returned by New for invalid specifications.
	ErrBadSpec = errors.New("rrd: invalid spec")
)

// Database is one metric's history. It is not safe for concurrent use;
// gmetad guards each database with its pool's locking discipline.
//
// Instants are kept as Unix seconds and durations as seconds, so the
// per-sample walk over primary data points is integer arithmetic;
// time.Time appears only at the API boundary. Update truncates to whole
// seconds and the steps are whole seconds, so nothing is lost.
type Database struct {
	spec      Spec
	step      int64 // spec.Step in seconds
	heartbeat int64 // spec.Heartbeat in whole seconds

	// loc is the location of the first update's time: the step grid
	// (pdpStart, archive ends, fetched points) is derived from it, and
	// every time.Time built from the grid carries it. lastLoc is the
	// location of the newest accepted update's time.
	loc, lastLoc *time.Location

	started    bool
	lastUpdate int64
	lastRaw    float64 // previous raw value, for Counter rate
	pdpStart   int64
	pdpSum     float64
	pdpKnown   int64 // seconds

	// slab is the columnar row store: one contiguous allocation holding
	// every archive's ring as a sub-slice. The checkpoint format reads
	// and writes it as a single column (see persist.go).
	slab     []float64
	archives []archive
	updates  uint64

	// known is set once archives[0] has stored at least one valid
	// (non-NaN) row; until then Last is meaningless and Pool.Last
	// reports (0, false).
	known bool
}

// New creates a Database. The first Update establishes the time origin.
// Steps must be whole seconds.
func New(spec Spec) (*Database, error) {
	if spec.Step <= 0 {
		return nil, fmt.Errorf("%w: non-positive step", ErrBadSpec)
	}
	if spec.Step%time.Second != 0 {
		return nil, fmt.Errorf("%w: step %v is not a whole number of seconds", ErrBadSpec, spec.Step)
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
	db := &Database{
		spec: spec,
		step: int64(spec.Step / time.Second),
		// Intervals are whole seconds, so interval <= Heartbeat holds
		// exactly when it holds against the heartbeat's whole seconds.
		heartbeat:  int64(spec.Heartbeat / time.Second),
		loc:        time.UTC,
		lastLoc:    time.UTC,
		lastUpdate: unixOfZero,
		pdpStart:   unixOfZero,
		slab:       make([]float64, total),
		archives:   make([]archive, len(spec.Archives)),
	}
	for i := range db.slab {
		db.slab[i] = math.NaN()
	}
	off := 0
	for i, as := range spec.Archives {
		if as.XFF == 0 {
			as.XFF = 0.5
		}
		db.archives[i] = archive{
			cf:     as.CF,
			xff:    as.XFF,
			step:   int64(as.Step / time.Second),
			factor: int(as.Step / spec.Step),
			ring:   db.slab[off : off+as.Rows : off+as.Rows],
			end:    unixOfZero,
		}
		off += as.Rows
	}
	return db, nil
}

// unixOfZero is the Unix time of the zero time.Time, which the engine
// stores for "never set" (an unstarted database, an archive that has
// not emitted a row) so that those instants convert back to the zero
// time.Time, exactly as they were kept before.
const unixOfZero = -62135596800

// timeAt converts Unix seconds back to a time.Time in loc.
func timeAt(sec int64, loc *time.Location) time.Time {
	if sec == unixOfZero {
		return time.Time{}
	}
	return time.Unix(sec, 0).In(loc)
}

// ceilUnix is t in Unix seconds, rounded up.
func ceilUnix(t time.Time) int64 {
	if t.Nanosecond() != 0 {
		return t.Unix() + 1
	}
	return t.Unix()
}

// gridFloor rounds sec down to a multiple of step, counted like
// time.Time.Truncate from the zero time (January 1, year 1), not from
// the Unix epoch: the two grids differ for steps that do not divide
// the 62135596800 seconds between them.
func gridFloor(sec, step int64) int64 {
	m := (sec%step - unixOfZero%step) % step
	if m < 0 {
		m += step
	}
	return sec - m
}

// Step returns the primary data point length.
func (d *Database) Step() time.Duration { return d.spec.Step }

// Updates returns the number of successful updates, the unit of archive
// work the experiment harness accounts.
func (d *Database) Updates() uint64 { return d.updates }

// Update folds one sample at time t into the database.
func (d *Database) Update(t time.Time, v float64) error {
	if !d.update(t.Unix(), t.Location(), v) {
		return fmt.Errorf("%w: %v <= %v", ErrPastUpdate,
			t.Truncate(time.Second), timeAt(d.lastUpdate, d.lastLoc))
	}
	return nil
}

// update folds one sample at Unix second sec, taken in loc, into the
// database; it reports false, changing nothing, when sec is not after
// the previous update.
func (d *Database) update(sec int64, loc *time.Location, v float64) bool {
	if !d.started {
		d.started = true
		d.loc, d.lastLoc = loc, loc
		d.lastUpdate = sec
		d.lastRaw = v
		d.pdpStart = gridFloor(sec, d.step)
		d.updates++
		// The first sample seeds the open PDP from pdpStart to sec.
		if !math.IsNaN(v) && d.spec.Type == Gauge {
			elapsed := sec - d.pdpStart
			d.pdpSum += v * float64(elapsed)
			d.pdpKnown += elapsed
		}
		return true
	}
	if sec <= d.lastUpdate {
		return false
	}

	interval := sec - d.lastUpdate
	var r float64
	known := interval <= d.heartbeat && !math.IsNaN(v)
	if known {
		switch d.spec.Type {
		case Gauge:
			r = v
		case Counter:
			delta := v - d.lastRaw
			if delta < 0 {
				known = false // counter reset
			} else {
				r = delta / float64(interval)
			}
		}
	}

	// Walk PDP boundaries between lastUpdate and sec, distributing the
	// interval's rate across them.
	for cur := d.lastUpdate; cur < sec; {
		pdpEnd := d.pdpStart + d.step
		segEnd := min(sec, pdpEnd)
		if known {
			seg := segEnd - cur
			d.pdpSum += r * float64(seg)
			d.pdpKnown += seg
		}
		cur = segEnd
		if cur == pdpEnd {
			d.closePDP(pdpEnd)
		}
	}

	d.lastUpdate = sec
	d.lastLoc = loc
	d.lastRaw = v
	d.updates++
	return true
}

// closePDP finalizes the primary data point ending at end and feeds it
// to every archive.
func (d *Database) closePDP(end int64) {
	var primary float64
	if d.pdpKnown*2 >= d.step { // at least half the step known
		primary = d.pdpSum / float64(d.pdpKnown)
	} else {
		primary = math.NaN()
	}
	d.pdpSum = 0
	d.pdpKnown = 0
	d.pdpStart = end
	for i := range d.archives {
		if emitted, row := d.archives[i].push(primary, end); i == 0 && emitted && !math.IsNaN(row) {
			d.known = true
		}
	}
}

// push accumulates one primary point into the archive's current window,
// emitting a row when the window completes; it reports whether a row
// was emitted and its value.
func (a *archive) push(v float64, end int64) (bool, float64) {
	if math.IsNaN(v) {
		a.unknown++
	} else {
		switch a.cf {
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
	if a.accumN == 0 || frac > a.xff {
		row = math.NaN()
	} else if a.cf == Average {
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
func (a *archive) rows() int {
	if a.wrapped {
		return len(a.ring)
	}
	return a.next
}

// row returns the i-th stored row, oldest first.
func (a *archive) row(i int) float64 {
	idx := a.next - a.rows() + i
	if idx < 0 {
		idx += len(a.ring)
	}
	return a.ring[idx]
}

// first returns the time of the oldest stored row.
func (a *archive) first() int64 { return a.end - int64(a.rows()-1)*a.step }

// span returns the index range [i0, i1), oldest row first, of the
// stored rows whose times lie in [lo, hi].
func (a *archive) span(lo, hi int64) (i0, i1 int) {
	n := a.rows()
	first := a.first()
	if n == 0 || lo > a.end || hi < first {
		return 0, 0
	}
	if lo > first {
		i0 = int((lo - first + a.step - 1) / a.step)
	}
	i1 = n
	if hi < a.end {
		i1 -= int((a.end - hi + a.step - 1) / a.step)
	}
	return i0, i1
}

// onlyCF reports whether a cf query is served from the archives
// provisioned with cf, which is the case when any of them holds data.
// Otherwise every populated archive serves it: a layout provisioned
// without e.g. MAX rollups (the stock Ganglia layout is AVERAGE-only)
// still answers cf=MAX by re-consolidating the rows it does have at
// query time.
func (d *Database) onlyCF(cf CF) bool {
	for i := range d.archives {
		if a := &d.archives[i]; a.rows() > 0 && a.cf == cf {
			return true
		}
	}
	return false
}

// choose returns the archive that serves a cf query starting at Unix
// second start: the finest one whose retention reaches back to start,
// or, when none does, the one whose stored data reaches back furthest
// (the finer archive on ties). This is the multiple-time-scale query
// of paper §2.1: asking about last hour hits the fine archive, asking
// about last year the coarse one. A start of math.MaxInt64 picks the
// finest archive that serves cf; nil means none holds data.
func (d *Database) choose(cf CF, start int64) *archive {
	only := d.onlyCF(cf)
	var chosen *archive
	var chosenOldest int64
	for i := range d.archives {
		a := &d.archives[i]
		if a.rows() == 0 || only && a.cf != cf {
			continue
		}
		oldest := a.end - int64(a.rows())*a.step
		if oldest <= start {
			return a
		}
		if chosen == nil || oldest < chosenOldest {
			chosen, chosenOldest = a, oldest
		}
	}
	return chosen
}

// window resolves a fetch of [start, end] to its archive and the range
// of that archive's rows, nil when nothing is stored there.
func (d *Database) window(cf CF, start, end time.Time) (a *archive, i0, i1 int) {
	// A row at whole second s lies in [start, end] exactly when s is at
	// least start rounded up and at most end rounded down.
	if a = d.choose(cf, start.Unix()); a == nil {
		return nil, 0, 0
	}
	i0, i1 = a.span(ceilUnix(start), end.Unix())
	if i0 >= i1 {
		return nil, 0, 0
	}
	return a, i0, i1
}

// points returns rows [i0, i1) of a as points, nil for an empty range.
func (d *Database) points(a *archive, i0, i1 int) []Point {
	if a == nil {
		return nil
	}
	pts := make([]Point, i1-i0)
	ts := a.first() + int64(i0)*a.step
	for i := range pts {
		pts[i] = Point{Time: timeAt(ts, d.loc), Value: a.row(i0 + i)}
		ts += a.step
	}
	return pts
}

// Fetch returns the consolidated points with function cf covering
// [start, end], from the highest-resolution archive whose retention
// reaches back to start (see choose). When no archive was provisioned
// with cf, the rows come from the finest archive that exists (see
// onlyCF).
func (d *Database) Fetch(cf CF, start, end time.Time) []Point {
	return d.points(d.window(cf, start, end))
}

// FetchRange is Fetch with query-time consolidation: the archive rows
// covering [start, end] are re-consolidated into buckets of length
// step, each bucket reported at its (step-grid-aligned) end time. This
// is how one archive layout answers the "wide range of time scale
// queries" of paper §2.1 at arbitrary granularity — the stored rollups
// give the base resolution, the query picks the display resolution.
//
// step counts in whole seconds; a step under one second means "no
// re-consolidation" and returns the archive rows as-is, exactly as
// Fetch would. A start after end returns nil. A step coarser than the
// whole retained range degenerates to a single bucket. Buckets whose
// every source row is unknown yield NaN points (the query asked about
// a window; the answer is "unknown", not silence), but ranges with no
// stored rows at all yield no points.
//
// A zero start or end defaults to the matching edge of the finest
// cf-archive's retained window, so FetchRange(cf, zero, zero, 0)
// reproduces FetchRecent(cf) exactly — the property the history query
// engine's equivalence oracle rests on.
func (d *Database) FetchRange(cf CF, start, end time.Time, step time.Duration) []Point {
	if start.IsZero() || end.IsZero() {
		fin := d.choose(cf, math.MaxInt64)
		if fin == nil {
			return nil
		}
		if end.IsZero() {
			end = timeAt(fin.end, d.loc)
		}
		if start.IsZero() {
			start = timeAt(fin.first(), d.loc)
		}
	}
	if start.After(end) {
		return nil
	}
	a, i0, i1 := d.window(cf, start, end)
	s := int64(step / time.Second)
	if a == nil || s <= 0 {
		return d.points(a, i0, i1)
	}
	// Bucket rows by the step grid: a row at time t belongs to the
	// bucket ending at the smallest grid point >= t.
	bucketEnd := func(ts int64) int64 {
		be := gridFloor(ts, s)
		if be < ts {
			be += s
		}
		return be
	}
	ts, last := a.first()+int64(i0)*a.step, a.first()+int64(i1-1)*a.step
	buckets := int((bucketEnd(last)-bucketEnd(ts))/s) + 1 // fewer when rows are sparser
	out := make([]Point, 0, min(i1-i0, buckets))
	var (
		bEnd = bucketEnd(ts)
		acc  float64
		n    int
	)
	flush := func() {
		v := math.NaN()
		if n > 0 {
			if cf == Average {
				v = acc / float64(n)
			} else {
				v = acc
			}
		}
		out = append(out, Point{Time: timeAt(bEnd, d.loc), Value: v})
		acc, n = 0, 0
	}
	for i := i0; i < i1; i, ts = i+1, ts+a.step {
		if be := bucketEnd(ts); be != bEnd {
			flush()
			bEnd = be
		}
		v := a.row(i)
		if math.IsNaN(v) {
			continue
		}
		switch cf {
		case Average:
			acc += v
		case Min:
			if n == 0 || v < acc {
				acc = v
			}
		case Max:
			if n == 0 || v > acc {
				acc = v
			}
		case Last:
			acc = v
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
func (d *Database) FetchRecent(cf CF) []Point {
	a := d.choose(cf, math.MaxInt64)
	if a == nil {
		return nil
	}
	return d.points(a, 0, a.rows())
}

// Last returns the most recent consolidated value from the finest
// archive, or NaN if nothing has been stored.
func (d *Database) Last() float64 {
	a := &d.archives[0]
	if a.rows() == 0 {
		return math.NaN()
	}
	return a.row(a.rows() - 1)
}

// MemoryRows returns the total rows across archives — constant for the
// life of the database, demonstrating the "do not grow in size over
// time" property.
func (d *Database) MemoryRows() int { return len(d.slab) }
