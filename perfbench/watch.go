package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"ganglia/internal/clock"
	"ganglia/internal/gxml"
	"ganglia/internal/summary"
)

// kickAfter is how long a round waits on the long-poll alone before
// asking the root plainly.
const kickAfter = 50 * time.Millisecond

// watcher holds a ?filter=watch long-poll open on the root at all
// times and records the highest marker value each answer carries, with
// the time its last byte arrived.
type watcher struct {
	addr, query string

	mu      sync.Mutex
	seen    int64
	at      time.Time
	err     error
	changed chan struct{}
	conn    net.Conn
	stopped bool
	done    chan struct{}
}

func startWatcher(addr, query string) (*watcher, error) {
	w := &watcher{addr: addr, query: query, changed: make(chan struct{}), done: make(chan struct{})}
	c, err := w.arm()
	if err != nil {
		return nil, err
	}
	go w.run(c)
	return w, nil
}

// arm opens the next long-poll; the server counts a change from the
// moment it reads the query line.
func (w *watcher) arm() (net.Conn, error) {
	c, err := net.Dial("tcp", w.addr)
	if err != nil {
		return nil, err
	}
	if _, err := io.WriteString(c, w.query+"\n"); err != nil {
		_ = c.Close()
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopped {
		_ = c.Close()
		return nil, net.ErrClosed
	}
	w.conn = c
	return c, nil
}

func (w *watcher) run(c net.Conn) {
	defer close(w.done)
	var body, plain bytes.Buffer
	for {
		body.Reset()
		_, err := body.ReadFrom(c)
		at := wall.Now()
		_ = c.Close()
		var v, pv int64
		var pat time.Time
		if err == nil {
			// Re-arm at once, then ask plainly: a change that landed
			// before the new watch began shows in the plain answer.
			if c, err = w.arm(); err == nil {
				pv, pat, err = w.current(&plain)
			}
		}
		if err == nil {
			v, err = markerOf(body.Bytes())
		}
		if err == nil && pv > v {
			v, at = pv, pat
		}
		w.mu.Lock()
		if w.stopped {
			w.mu.Unlock()
			if c != nil {
				_ = c.Close()
			}
			return
		}
		if err != nil {
			w.err = err
		} else if v > w.seen {
			w.seen, w.at = v, at
		}
		close(w.changed)
		w.changed = make(chan struct{})
		w.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// current asks the watched path without waiting and returns the marker
// it carries and when its last byte arrived.
func (w *watcher) current(buf *bytes.Buffer) (int64, time.Time, error) {
	line := strings.TrimSuffix(w.query, "?filter=watch")
	tm, err := ask(w.addr, line, buf)
	if err != nil {
		return 0, time.Time{}, err
	}
	v, err := markerOf(buf.Bytes())
	return v, tm.end, err
}

// markerOf returns the marker's sum in the answer's summary.
func markerOf(body []byte) (int64, error) {
	if bytes.Contains(body, []byte("<!-- ERROR")) {
		return 0, fmt.Errorf("watch answer is an error: %.200s", body)
	}
	var v float64
	err := gxml.ParseStream(bytes.NewReader(body), &gxml.Handler{
		SummaryMetric: func(sm summary.Metric) {
			if sm.Name == markerMetric {
				v = sm.Sum
			}
		},
	})
	if err != nil {
		return 0, fmt.Errorf("watch answer: %w", err)
	}
	return int64(v), nil
}

// waitFor blocks until an answer carried marker value r or later, and
// returns the time that answer's last byte arrived. A change that lands
// while the long-poll is being re-armed can go unannounced until the
// next one; so whenever kickAfter passes without news, waitFor asks
// plainly itself.
func (w *watcher) waitFor(r int64, timeout time.Duration) (time.Time, error) {
	deadline := clock.NewTimer(timeout)
	defer deadline.Stop()
	kick := clock.NewTicker(kickAfter)
	defer kick.Stop()
	var plain bytes.Buffer
	for {
		w.mu.Lock()
		seen, at, err, ch := w.seen, w.at, w.err, w.changed
		w.mu.Unlock()
		if err != nil {
			return time.Time{}, err
		}
		if seen >= r {
			if seen > r {
				return at, fmt.Errorf("marker jumped from %d to %d", r, seen)
			}
			return at, nil
		}
		select {
		case <-ch:
		case <-kick.C:
			v, pat, err := w.current(&plain)
			if err != nil {
				return time.Time{}, err
			}
			w.mu.Lock()
			if v > w.seen {
				w.seen, w.at = v, pat
			}
			w.mu.Unlock()
		case <-deadline.C:
			return time.Time{}, fmt.Errorf("marker %d did not reach the root within %v (last seen %d)", r, timeout, seen)
		}
	}
}

func (w *watcher) stop() {
	w.mu.Lock()
	w.stopped = true
	if w.conn != nil {
		_ = w.conn.Close()
	}
	w.mu.Unlock()
	<-w.done
}
