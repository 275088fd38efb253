package rrd

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultShards is the pool's default shard count. Sixteen independent
// locks keep history fetches from serializing behind poll-loop update
// batches at any realistic core count, while the per-shard map overhead
// stays negligible.
const DefaultShards = 16

// poolShard is one independently locked slice of the hosts: each host
// maps metric names to that host's databases.
type poolShard struct {
	mu      sync.Mutex
	hosts   map[hostKey]map[string]*Database
	updates uint64 // guarded by mu
	errors  uint64 // guarded by mu

	// Lock-wait hints: TryLock succeeds silently on the (overwhelmingly
	// common) uncontended path, so the wall-clock reads below are paid
	// only when an acquisition actually had to wait.
	contended atomic.Uint64
	waitNS    atomic.Int64
}

// lock acquires the shard lock, recording a contention hint when the
// acquisition had to wait.
func (s *poolShard) lock() {
	if s.mu.TryLock() {
		return
	}
	start := time.Now() //lint:allow clock shard-lock wait hints measure real contention even under a virtual clock
	s.mu.Lock()         //lint:allow locks lock() is the shard's acquire helper; every caller unlocks
	s.contended.Add(1)
	s.waitNS.Add(int64(time.Since(start))) //lint:allow clock shard-lock wait hints measure real contention even under a virtual clock
}

// Pool manages the databases of one gmetad: one per archived series,
// named by a slash path such as "Meteor/compute-0-0/load_one" for host
// metrics or "Meteor/__summary__/load_one" for cluster summaries.
//
// Pool is safe for concurrent use. Series are grouped by host, and the
// hosts are sharded by hash across independently locked shards: the
// poll loop archives a host's whole report under one lock with one host
// lookup (UpdateHost), and history fetches on the serve path contend
// with it only on the same shard — the paper's §4 "too many updates to
// the file-based databases" burden, paid once per host instead of once
// per sample. Names are interned in a shared table (see intern.go) when
// a series is created, and per-shard update counters feed the work
// accounting that stands in for %CPU in the experiments.
type Pool struct {
	spec   Spec
	names  internTable
	shards []*poolShard
}

// NewPool creates a pool whose databases all use spec, with
// DefaultShards lock shards.
func NewPool(spec Spec) *Pool { return NewPoolShards(spec, DefaultShards) }

// NewPoolShards creates a pool with an explicit shard count; n < 1 is
// clamped to 1 (a single-shard pool is the legacy global-lock layout).
func NewPoolShards(spec Spec, n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{spec: spec, shards: make([]*poolShard, n)}
	for i := range p.shards {
		p.shards[i] = &poolShard{hosts: make(map[hostKey]map[string]*Database)}
	}
	return p
}

// shardOf selects the shard owning host k.
func (p *Pool) shardOf(k hostKey) *poolShard {
	return p.shards[int(k.hash())%len(p.shards)]
}

// Sample is one metric's value in a host's update.
type Sample struct {
	Metric string
	Value  float64
}

// UpdateHost folds one host's samples, all taken at t, into the host's
// series, creating each database on first use. It takes the host's
// shard lock once and looks the host up once; a metric name is interned
// only when its series is created. It returns how many samples were
// rejected — ErrPastUpdate, e.g. two polls within one second — each
// also counted in Stats.
func (p *Pool) UpdateHost(cluster, host string, t time.Time, samples []Sample) (rejected int) {
	rejected, _ = p.update(hostKey{cluster: cluster, host: host, depth: 3}, t, samples)
	return rejected
}

// Update folds a sample into the series at key, creating the database
// on first use.
func (p *Pool) Update(key string, t time.Time, v float64) error {
	k, metric := splitKey(key)
	return p.updateOne(k, metric, t, v)
}

// UpdateSeries is Update addressed by name components.
func (p *Pool) UpdateSeries(cluster, host, metric string, t time.Time, v float64) error {
	return p.updateOne(hostKey{cluster: cluster, host: host, depth: 3}, metric, t, v)
}

// updateOne is the one-sample case of update, reporting a rejection as
// an error.
func (p *Pool) updateOne(k hostKey, metric string, t time.Time, v float64) error {
	samples := [1]Sample{{Metric: metric, Value: v}}
	rejected, err := p.update(k, t, samples[:])
	if err != nil {
		return err
	}
	if rejected > 0 {
		return fmt.Errorf("%w: %s at %v", ErrPastUpdate, k.key(metric), t.Truncate(time.Second))
	}
	return nil
}

// update is the pool's one write path: samples at t into host k's
// series. err is set only when a database cannot be created (the
// pool's spec is invalid); those samples count as rejected but not as
// update errors.
func (p *Pool) update(k hostKey, t time.Time, samples []Sample) (rejected int, err error) {
	sec, loc := t.Unix(), t.Location()
	s := p.shardOf(k)
	s.lock()
	defer s.mu.Unlock()
	dbs := s.hosts[k]
	for i := range samples {
		smp := &samples[i]
		db := dbs[smp.Metric]
		if db == nil {
			var nerr error
			if db, nerr = New(p.spec); nerr != nil {
				rejected, err = rejected+1, nerr
				continue
			}
			if dbs == nil {
				dbs = make(map[string]*Database)
				s.hosts[p.names.internHost(k)] = dbs
			}
			dbs[p.names.intern(smp.Metric)] = db
		}
		if db.update(sec, loc, smp.Value) {
			s.updates++
		} else {
			s.errors++
			rejected++
		}
	}
	return rejected, err
}

// lookup locks the shard of host k and returns it with the series'
// database, nil when the series does not exist. The caller unlocks.
func (p *Pool) lookup(k hostKey, metric string) (*poolShard, *Database) {
	s := p.shardOf(k)
	s.lock()
	return s, s.hosts[k][metric]
}

// Fetch queries the series at key; it returns nil for unknown keys.
func (p *Pool) Fetch(key string, cf CF, start, end time.Time) []Point {
	s, db := p.lookup(splitKey(key))
	defer s.mu.Unlock()
	if db == nil {
		return nil
	}
	return db.Fetch(cf, start, end)
}

// FetchRange queries the series at key with query-time consolidation to
// step (see Database.FetchRange); nil for unknown keys.
func (p *Pool) FetchRange(key string, cf CF, start, end time.Time, step time.Duration) []Point {
	s, db := p.lookup(splitKey(key))
	defer s.mu.Unlock()
	if db == nil {
		return nil
	}
	return db.FetchRange(cf, start, end, step)
}

// FetchRangeSeries is FetchRange addressed by name components.
func (p *Pool) FetchRangeSeries(cluster, host, metric string, cf CF, start, end time.Time, step time.Duration) []Point {
	s, db := p.lookup(hostKey{cluster: cluster, host: host, depth: 3}, metric)
	defer s.mu.Unlock()
	if db == nil {
		return nil
	}
	return db.FetchRange(cf, start, end, step)
}

// FetchRecent returns the finest-resolution window for key; nil for
// unknown keys.
func (p *Pool) FetchRecent(key string, cf CF) []Point {
	s, db := p.lookup(splitKey(key))
	defer s.mu.Unlock()
	if db == nil {
		return nil
	}
	return db.FetchRecent(cf)
}

// Last returns the most recent stored value for key. ok is false for
// unknown keys and for series that exist but have never stored a valid
// (known) sample — a freshly created database, or one whose every
// consolidated row so far came out unknown, reports (0, false) until a
// real value lands.
func (p *Pool) Last(key string) (float64, bool) {
	s, db := p.lookup(splitKey(key))
	defer s.mu.Unlock()
	if db == nil || !db.known {
		return 0, false
	}
	return db.Last(), true
}

// HasSeries reports whether a cluster/host/metric series exists, without
// touching its data — the existence probe behind "unknown series" vs
// "known series, empty window" answers.
func (p *Pool) HasSeries(cluster, host, metric string) bool {
	s, db := p.lookup(hostKey{cluster: cluster, host: host, depth: 3}, metric)
	defer s.mu.Unlock()
	return db != nil
}

// SeriesHosts returns the sorted host names that hold a series for
// cluster/metric — the enumeration behind cross-host reductions such as
// topk. It scans hosts, not series.
func (p *Pool) SeriesHosts(cluster, metric string) []string {
	var hosts []string
	for _, s := range p.shards {
		s.lock()
		for k, dbs := range s.hosts {
			if k.depth != 3 || k.cluster != cluster {
				continue
			}
			if _, ok := dbs[metric]; ok {
				hosts = append(hosts, k.host)
			}
		}
		s.mu.Unlock()
	}
	sort.Strings(hosts)
	return hosts
}

// each calls f for every series of the shard, which the caller holds
// locked.
func (s *poolShard) each(f func(key string, db *Database)) {
	for k, dbs := range s.hosts {
		for m, db := range dbs {
			f(k.key(m), db)
		}
	}
}

// series counts the shard's series; the caller holds it locked.
func (s *poolShard) series() int {
	n := 0
	for _, dbs := range s.hosts {
		n += len(dbs)
	}
	return n
}

// place files db under key in a pool that is still being built and
// that no other goroutine can reach (so no locks are taken). It reports
// false, filing nothing, when key already names a series.
func (p *Pool) place(key string, db *Database) bool {
	k, metric := splitKey(key)
	s := p.shardOf(k)
	dbs := s.hosts[k]
	if dbs == nil {
		dbs = make(map[string]*Database)
		s.hosts[p.names.internHost(k)] = dbs
	}
	if _, dup := dbs[metric]; dup {
		return false
	}
	dbs[p.names.intern(metric)] = db
	return true
}

// Len returns the number of series.
func (p *Pool) Len() int {
	n := 0
	for _, s := range p.shards {
		s.lock()
		n += s.series()
		s.mu.Unlock()
	}
	return n
}

// Keys returns the sorted series keys.
func (p *Pool) Keys() []string {
	var keys []string
	for _, s := range p.shards {
		s.lock()
		s.each(func(key string, _ *Database) { keys = append(keys, key) })
		s.mu.Unlock()
	}
	sort.Strings(keys)
	return keys
}

// Stats reports cumulative successful updates and rejected updates
// across all shards.
func (p *Pool) Stats() (updates, errors uint64) {
	for _, s := range p.shards {
		s.lock()
		updates += s.updates
		errors += s.errors
		s.mu.Unlock()
	}
	return updates, errors
}

// ShardStat describes one shard's load, for the status surfaces.
type ShardStat struct {
	Series    int
	Updates   uint64
	Errors    uint64
	Contended uint64
	LockWait  time.Duration
}

// ShardStats reports per-shard series counts, update counters and
// lock-wait hints.
func (p *Pool) ShardStats() []ShardStat {
	out := make([]ShardStat, len(p.shards))
	for i, s := range p.shards {
		s.lock()
		out[i] = ShardStat{
			Series:    s.series(),
			Updates:   s.updates,
			Errors:    s.errors,
			Contended: s.contended.Load(),
			LockWait:  time.Duration(s.waitNS.Load()),
		}
		s.mu.Unlock()
	}
	return out
}

// Shards returns the shard count.
func (p *Pool) Shards() int { return len(p.shards) }

// InternedNames returns the number of distinct name components the
// shared intern table holds — for a million series over a few hundred
// names, the measure of the deduplication.
func (p *Pool) InternedNames() int { return p.names.len() }

// LockContention sums the shard-lock wait hints: how many acquisitions
// had to wait, and for how long in total.
func (p *Pool) LockContention() (contended uint64, wait time.Duration) {
	for _, s := range p.shards {
		contended += s.contended.Load()
		wait += time.Duration(s.waitNS.Load())
	}
	return contended, wait
}
