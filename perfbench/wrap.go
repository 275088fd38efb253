package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"net"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ganglia/internal/transport"
	"ganglia/internal/vfs"
)

// Link kinds, as counted by countNet.
const (
	kindGmond  = "gmond"  // a poll of a cluster's report
	kindGmetad = "gmetad" // a poll of a child gmetad's summary answer
	kindStream = "stream" // a delta-subscription link to a child gmetad
)

var kinds = []string{kindGmond, kindGmetad, kindStream}

// wireCounts is the bytes every gmetad of the tree received, by link
// kind.
type wireCounts struct {
	gmond, gmetad, stream atomic.Int64
}

func (w *wireCounts) of(kind string) *atomic.Int64 {
	switch kind {
	case kindGmond:
		return &w.gmond
	case kindGmetad:
		return &w.gmetad
	}
	return &w.stream
}

func (w *wireCounts) total() int64 { return w.gmond.Load() + w.gmetad.Load() + w.stream.Load() }

// countNet is the transport.Network one gmetad of the tree dials
// through. It counts every byte the gmetad receives, by link kind, and
// with tracing on records a span per dial and per poll connection. It
// also keeps the bytes of the last poll of each kind and of every
// stream link, so the traced run can replay real inputs layer by layer.
type countNet struct {
	inner transport.Network
	node  string
	// gmondAddrs are the addresses of cluster report servers; any other
	// address is a child gmetad's query port.
	gmondAddrs map[string]bool
	wire       *wireCounts
	tr         *tracer
	// poll is the span id of the node's PollOnce in progress, so
	// connections opened by that poll name it as their parent.
	poll atomic.Int64
	cap  *captures
}

// captures holds the real bytes the traced run replays.
type captures struct {
	mu      sync.Mutex
	on      bool
	last    map[string][]byte // kind -> whole body of the latest poll
	streams map[string]*bytes.Buffer
}

const maxStreamCapture = 64 << 20

func newCaptures(on bool) *captures {
	return &captures{on: on, last: map[string][]byte{}, streams: map[string]*bytes.Buffer{}}
}

func (c *captures) lastOf(kind string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last[kind]
}

// streamLinks returns the captured bytes of every stream link, by
// "parent<-child" name.
func (c *captures) streamLinks() map[string][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]byte, len(c.streams))
	for k, b := range c.streams {
		out[k] = b.Bytes()
	}
	return out
}

func (n *countNet) Listen(addr string) (net.Listener, error) { return n.inner.Listen(addr) }

func (n *countNet) Dial(addr string) (net.Conn, error) {
	start := wall.Now()
	conn, err := n.inner.Dial(addr)
	parent := n.poll.Load()
	if n.tr != nil {
		n.tr.add("transport.dial", parent, start, wall.Now())
	}
	if err != nil {
		return nil, err
	}
	c := &countConn{Conn: conn, net: n, addr: addr, start: start, parent: parent}
	if n.gmondAddrs[addr] {
		c.kind.Store(kindGmond)
	}
	return c, nil
}

// countConn counts and optionally captures what a gmetad reads.
type countConn struct {
	net.Conn
	net    *countNet
	addr   string
	start  time.Time
	parent int64
	kind   atomic.Value // string, set on dial or on the query line
	closed atomic.Bool

	mu  sync.Mutex
	buf *bytes.Buffer // capture of a poll body, traced runs only
}

func (c *countConn) kindOf() string {
	k, _ := c.kind.Load().(string)
	return k
}

func (c *countConn) Write(p []byte) (int, error) {
	if c.kindOf() == "" {
		kind := kindGmetad
		if bytes.Contains(p, []byte("filter=stream")) {
			kind = kindStream
		}
		c.kind.Store(kind)
	}
	return c.Conn.Write(p)
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		kind := c.kindOf()
		if kind == "" {
			kind = kindGmetad
		}
		c.net.wire.of(kind).Add(int64(n))
		if c.net.cap.on {
			c.capture(kind, p[:n])
		}
	}
	return n, err
}

func (c *countConn) capture(kind string, p []byte) {
	if kind == kindStream {
		cp := c.net.cap
		cp.mu.Lock()
		key := c.net.node + "<-" + c.addr
		b := cp.streams[key]
		if b == nil {
			b = &bytes.Buffer{}
			cp.streams[key] = b
		}
		if b.Len()+len(p) <= maxStreamCapture {
			b.Write(p)
		}
		cp.mu.Unlock()
		return
	}
	c.mu.Lock()
	if c.buf == nil {
		c.buf = &bytes.Buffer{}
	}
	c.buf.Write(p)
	c.mu.Unlock()
}

func (c *countConn) Close() error {
	if c.closed.Swap(true) {
		return c.Conn.Close()
	}
	kind := c.kindOf()
	if c.net.tr != nil && kind != kindStream {
		c.net.tr.add("transport.poll_conn."+kind, c.parent, c.start, wall.Now())
	}
	c.mu.Lock()
	if c.buf != nil {
		cp := c.net.cap
		cp.mu.Lock()
		cp.last[kind] = c.buf.Bytes()
		cp.mu.Unlock()
		c.buf = nil
	}
	c.mu.Unlock()
	return c.Conn.Close()
}

// memFS is the in-memory vfs.FS the root checkpoints into. It counts
// the bytes written and read and, with tracing on, records a span per
// snapshot file written or read.
type memFS struct {
	tr *tracer

	mu      sync.Mutex
	files   map[string][]byte
	written atomic.Int64
	read    atomic.Int64
}

func newMemFS(tr *tracer) *memFS { return &memFS{tr: tr, files: map[string][]byte{}} }

func (m *memFS) Create(name string) (vfs.File, error) {
	return &memFile{fs: m, name: name, w: &bytes.Buffer{}, start: wall.Now()}, nil
}

func (m *memFS) Open(name string) (vfs.File, error) {
	m.mu.Lock()
	b, ok := m.files[name]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("open %s: %w", name, fs.ErrNotExist)
	}
	return &memFile{fs: m, name: name, r: bytes.NewReader(b), start: wall.Now()}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[oldpath]
	if !ok {
		return fmt.Errorf("rename %s: %w", oldpath, fs.ErrNotExist)
	}
	delete(m.files, oldpath)
	m.files[newpath] = b
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("remove %s: %w", name, fs.ErrNotExist)
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) ReadDirNames(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for name := range m.files {
		if path.Dir(name) == path.Clean(dir) {
			names = append(names, path.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *memFS) SyncDir(string) error { return nil }

// newest returns the name and bytes of the newest generation under base.
func (m *memFS) newest(base string) (string, []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var best string
	for name := range m.files {
		if strings.HasPrefix(name, base+".gen-") && name > best {
			best = name
		}
	}
	return best, m.files[best]
}

type memFile struct {
	fs    *memFS
	name  string
	w     *bytes.Buffer
	r     *bytes.Reader
	start time.Time
	done  bool
}

func (f *memFile) Read(p []byte) (int, error) {
	if f.r == nil {
		return 0, fmt.Errorf("read %s: opened for writing", f.name)
	}
	n, err := f.r.Read(p)
	f.fs.read.Add(int64(n))
	return n, err
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.w == nil {
		return 0, fmt.Errorf("write %s: opened for reading", f.name)
	}
	n, _ := f.w.Write(p)
	f.fs.written.Add(int64(n))
	return n, nil
}

func (f *memFile) Sync() error { return nil }

func (f *memFile) Close() error {
	if f.done {
		return nil
	}
	f.done = true
	if f.w == nil {
		if f.fs.tr != nil {
			f.fs.tr.add("rrd.snapshot_read", 0, f.start, wall.Now())
		}
		return nil
	}
	b := f.w.Bytes()
	f.fs.mu.Lock()
	f.fs.files[f.name] = b
	f.fs.mu.Unlock()
	if f.fs.tr != nil {
		f.fs.tr.add("rrd.snapshot_write", 0, f.start, wall.Now())
	}
	return nil
}
