package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"runtime"
	"syscall"
	"time"

	"ganglia/internal/gmetad"
)

// workload is one input mix the benchmark runs against the tree.
type workload struct {
	name, why string
	opts      treeOpts
}

const (
	hostsPerCluster = 100
	// probePasses is how often the tree workloads ask each view after a
	// round.
	probePasses = 2
	// markerTimeout fails a round whose marker never reaches the root.
	markerTimeout = 10 * time.Second
)

var workloads = []workload{
	{
		name: "poll-tree",
		why:  "every link polled and every metric changes each round, rounds back to back: the ingest path (gxml parse, summary, rrd update, fragment render) does the work",
		opts: treeOpts{hosts: hostsPerCluster, warmup: 3},
	},
	{
		name: "stream-tree",
		why:  "gmetad links subscribed and 1% of hosts change per round: frame diff and apply plus the reparse of each applied frame dominate",
		opts: treeOpts{hosts: hostsPerCluster, warmup: 4, subscribe: true, churn: true},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// window is what one measured stretch of a workload recorded.
type window struct {
	start     time.Time
	rounds    int
	fresh     sample // ms, per round
	roundMs   sample // ms, per round
	cpu       time.Duration
	wire      int64
	wireKind  map[string]int64
	q         map[string]sample // ms, per view
	qAll      sample            // ms, every query
	attempted int
	failed    int
	errs      []string

	acct0, acct1         gmetad.Snapshot
	rootAcct0, rootAcct1 gmetad.Snapshot
	mem0, mem1           runtime.MemStats
	wait0, wait1         time.Duration
	kind0                map[string]int64
	// checked counts answers verified; answers whose bytes repeat an
	// already-verified answer are counted once.
	checked int
}

func (w *window) fail(err error) {
	w.failed++
	if len(w.errs) < 8 {
		w.errs = append(w.errs, err.Error())
	}
}

func (t *benchTree) openWindow() *window {
	w := &window{q: map[string]sample{}, wireKind: map[string]int64{}, kind0: map[string]int64{}}
	w.acct0 = t.acct()
	w.rootAcct0 = t.rootNode().g.Accounting().Snapshot()
	w.wait0 = t.shardWait()
	for _, k := range kinds {
		w.kind0[k] = t.wire.of(k).Load()
	}
	runtime.ReadMemStats(&w.mem0)
	w.start = wall.Now()
	return w
}

func (t *benchTree) closeWindow(w *window) {
	runtime.ReadMemStats(&w.mem1)
	w.acct1 = t.acct()
	w.rootAcct1 = t.rootNode().g.Accounting().Snapshot()
	w.wait1 = t.shardWait()
	for _, k := range kinds {
		w.wireKind[k] = t.wire.of(k).Load() - w.kind0[k]
	}
	d := w.acct1
	d.PollFails -= w.acct0.PollFails
	d.StreamGaps -= w.acct0.StreamGaps
	d.StreamFallbacks -= w.acct0.StreamFallbacks
	d.RejectedConns -= w.acct0.RejectedConns
	d.CheckpointFails -= w.acct0.CheckpointFails
	for _, c := range []struct {
		n    int64
		what string
	}{
		{d.PollFails, "poll failures"}, {d.StreamGaps, "stream gaps"},
		{d.StreamFallbacks, "stream poll fallbacks"}, {d.RejectedConns, "rejected connections"},
		{d.CheckpointFails, "failed checkpoints"},
	} {
		if c.n > 0 {
			w.attempted += int(c.n)
			w.failed += int(c.n) - 1
			w.fail(fmt.Errorf("%d %s", c.n, c.what))
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedRound runs one round after prepare: the marker is set, every
// gmetad polls leaf-first, and the round ends once the root's answer
// carries the marker and every subscribed link has caught up.
func (t *benchTree) timedRound(w *window) {
	tr := t.opts.tr
	id := tr.id()
	tr.setGroup(id)
	cpu0, wire0, start := cpuTime(), t.wire.total(), wall.Now()
	w.attempted++
	failed := false
	if err := t.setMarker(id); err != nil {
		w.fail(err)
		failed = true
	}
	t.pollAll(&id)
	ws := wall.Now()
	at, err := t.watch.waitFor(t.round, markerTimeout)
	tr.add("wait.fresh", id, ws, wall.Now())
	if err != nil && !failed {
		w.fail(fmt.Errorf("round %d: %w", t.round, err))
		failed = true
	}
	ls := wall.Now()
	if err := t.waitLinks(markerTimeout); err != nil && !failed {
		w.fail(fmt.Errorf("round %d: %w", t.round, err))
		failed = true
	}
	end := wall.Now()
	tr.add("wait.links", id, ls, end)
	w.cpu += cpuTime() - cpu0
	w.wire += t.wire.total() - wire0
	tr.record(id, "round", 0, id, start, end)
	tr.setGroup(0)
	w.rounds++
	w.roundMs = append(w.roundMs, ms(end.Sub(start)))
	if !failed {
		w.fresh = append(w.fresh, ms(at.Sub(start)))
	}
}

// runTree measures back-to-back rounds, each followed by a closed-loop
// probe of every view at the root. The window lasts at least seconds,
// and longer if a tail still lacks its samples, up to three times that.
func runTree(t *benchTree, seconds time.Duration, rng *rand.Rand, log *answerLog) *window {
	w := t.openWindow()
	hard := w.start.Add(3 * seconds)
	var buf bytes.Buffer
	for {
		now := wall.Now()
		enough := len(w.fresh) >= needed(0.9) && len(w.qAll) >= needed(0.9)
		if now.After(hard) || (now.Sub(w.start) >= seconds && enough) {
			break
		}
		if err := t.prepare(); err != nil {
			w.fail(err)
			break
		}
		t.timedRound(w)
		t.probe(w, rng, &buf, log)
	}
	t.closeWindow(w)
	w.checked += log.checkAll(t.hostCount(), w.fail)
	return w
}

// probe asks every view probePasses times: the first answer after a
// round misses the response cache, the repeats hit it within the
// epoch. The per-view latency is the first's; the all-view tail takes
// every pass.
func (t *benchTree) probe(w *window, rng *rand.Rand, buf *bytes.Buffer, log *answerLog) {
	addr := t.rootNode().addr
	reqs := make([]request, len(views))
	for i, v := range views {
		reqs[i] = t.draw(v, rng.Int(), rng.Int())
	}
	for pass := 0; pass < probePasses; pass++ {
		for _, r := range reqs {
			w.attempted++
			tm, err := t.timedAsk(addr, r, buf)
			if err == nil {
				err = log.add(r, buf.Bytes())
			}
			if err != nil {
				w.fail(err)
				continue
			}
			lat := ms(tm.end.Sub(tm.start))
			if pass == 0 {
				w.q[r.view.name] = append(w.q[r.view.name], lat)
			}
			w.qAll = append(w.qAll, lat)
		}
	}
}

// timedAsk asks one query and records its client-side spans.
func (t *benchTree) timedAsk(addr string, r request, buf *bytes.Buffer) (timing, error) {
	tm, err := ask(addr, r.line, buf)
	if tr := t.opts.tr; tr != nil && err == nil {
		id := tr.id()
		tr.record(tr.id(), "query.connect", id, id, tm.start, tm.connected)
		tr.record(tr.id(), "query.wait", id, id, tm.sent, tm.first)
		tr.record(tr.id(), "query.read", id, id, tm.first, tm.end)
		tr.record(id, "query."+r.view.name, 0, id, tm.start, tm.end)
	}
	return tm, err
}

func (t *benchTree) hostCount() int { return t.topo.HostCount() }

// answerLog keeps every distinct answer of a window for checking after
// it, off the timed path. The bodies go to a file, so holding them
// adds nothing to the heap whose collection the program pays for.
type answerLog struct {
	f     *os.File
	off   int64
	seen  map[[2]uint32]bool
	items []loggedAnswer
}

type loggedAnswer struct {
	r      request
	off, n int64
}

func newAnswerLog(dir string) (*answerLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "answers-*")
	if err != nil {
		return nil, err
	}
	return &answerLog{f: f, seen: map[[2]uint32]bool{}}, nil
}

// add logs body unless the same answer to the same query was logged.
func (l *answerLog) add(r request, body []byte) error {
	key := [2]uint32{crc32.ChecksumIEEE([]byte(r.line)), crc32.ChecksumIEEE(body)}
	if l.seen[key] {
		return nil
	}
	l.seen[key] = true
	if _, err := l.f.Write(body); err != nil {
		return fmt.Errorf("answer log: %w", err)
	}
	l.items = append(l.items, loggedAnswer{r: r, off: l.off, n: int64(len(body))})
	l.off += int64(len(body))
	return nil
}

// checkAll checks every answer logged since the last call, reports
// each failure and returns how many answers it checked.
func (l *answerLog) checkAll(hosts int, fail func(error)) int {
	var body []byte
	for _, it := range l.items {
		if int64(cap(body)) < it.n {
			body = make([]byte, it.n)
		}
		body = body[:it.n]
		if _, err := l.f.ReadAt(body, it.off); err != nil {
			fail(fmt.Errorf("answer log: %w", err))
			continue
		}
		if err := check(it.r, body, hosts); err != nil {
			fail(err)
		}
	}
	n := len(l.items)
	l.items = nil
	return n
}

func (l *answerLog) close() {
	_ = l.f.Close()
	_ = os.Remove(l.f.Name()) // a log left behind sits in the git-ignored build directory
}
