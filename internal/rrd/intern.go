package rrd

import (
	"strings"
	"sync"
)

// Name interning. A pool holding a million series would otherwise hold
// a million private copies of a few hundred distinct cluster, host and
// metric names ("load_one" appears once per host, every host name once
// per metric). The intern table maps every component to one shared
// canonical string, so the pool's host keys and metric-name map keys
// are string headers over shared backing arrays — the storage-side half of making the archive store
// viable at the radiotelescope regime of few names × many samples.

// internTable deduplicates name strings. It is shared by all of a
// pool's shards: names cross shard boundaries (the same metric lives in
// many series), so the table is the one piece of pool state outside the
// shard locks, behind its own read-mostly lock.
type internTable struct {
	mu sync.RWMutex
	m  map[string]string
}

// intern returns the canonical copy of s. The common case, a name
// already seen, takes a single RLock.
func (t *internTable) intern(s string) string {
	t.mu.RLock()
	i, ok := t.m[s]
	t.mu.RUnlock()
	if ok {
		return i
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.internLocked(s)
}

// internLocked returns the canonical copy of s, cloning on first sight:
// the argument may be a substring of a larger buffer (a key split into
// components, a name in a parsed document), and storing it verbatim
// would pin that whole buffer.
func (t *internTable) internLocked(s string) string {
	if i, ok := t.m[s]; ok {
		return i
	}
	if t.m == nil {
		t.m = make(map[string]string)
	}
	s = strings.Clone(s)
	t.m[s] = s
	return s
}

// internHost returns k with its names canonicalized.
func (t *internTable) internHost(k hostKey) hostKey {
	k.cluster, k.host = t.intern(k.cluster), t.intern(k.host)
	return k
}

// len returns the number of distinct interned names.
func (t *internTable) len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}

// hostKey names one host of the pool: interned cluster and host names
// plus the slash key's segment count, so arbitrary slash keys
// (including the degenerate one- and two-segment keys unit tests use)
// round trip exactly through key. Only three-segment keys carry a
// metric name; shorter ones file their one series under metric "".
type hostKey struct {
	cluster, host string
	depth         uint8
}

// splitKey decomposes a slash key into its host and metric name; a key
// with more than two slashes keeps the tail in the metric name.
func splitKey(key string) (k hostKey, metric string) {
	k.cluster, k.depth = key, 1
	if i := strings.IndexByte(key, '/'); i >= 0 {
		k.cluster, k.host, k.depth = key[:i], key[i+1:], 2
		if j := strings.IndexByte(k.host, '/'); j >= 0 {
			k.host, metric, k.depth = k.host[:j], k.host[j+1:], 3
		}
	}
	return k, metric
}

// key reassembles the slash key of the host's series named metric.
func (k hostKey) key(metric string) string {
	switch k.depth {
	case 1:
		return k.cluster
	case 2:
		return k.cluster + "/" + k.host
	}
	return k.cluster + "/" + k.host + "/" + metric
}

// hash is FNV-1a over the names with separators, the shard selector.
func (k hostKey) hash() uint32 {
	const prime = 16777619
	h := uint32(2166136261)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint32(s[i])
			h *= prime
		}
		h ^= '/'
		h *= prime
	}
	mix(k.cluster)
	mix(k.host)
	h ^= uint32(k.depth)
	h *= prime
	return h
}
