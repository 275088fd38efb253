package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ganglia/internal/clock"
	"ganglia/internal/gmetad"
	"ganglia/internal/gmond"
	"ganglia/internal/gxml"
	"ganglia/internal/metric"
	"ganglia/internal/pseudo"
	"ganglia/internal/rrd"
	"ganglia/internal/transport"
	"ganglia/internal/tree"
)

const (
	// roundStep is the virtual time one polling round advances: the
	// paper's 15 s cadence.
	roundStep = 15 * time.Second
	// markerCluster is the leaf cluster made of real gmond agents; it
	// sits under physics, three gmetad hops below the root.
	markerCluster = "quark-a"
	markerParent  = "ucsd"
	markerMetric  = "bench_marker"
	// viewCluster is the root's local cluster the queries address.
	viewCluster = "meteor-a"
	// ckptBase is the root's archive path inside the in-memory FS.
	ckptBase = "ckpt/root.rrd"
)

// treeOpts selects how the fig-2 tree is stood up.
type treeOpts struct {
	seed  int64
	hosts int
	// subscribe makes every gmetad->gmetad link a delta subscription.
	subscribe bool
	// churn replaces the value emulators by ChurnGmond at 1% per round
	// and holds the marker cluster's gmond clock still, so the marker
	// host is that cluster's only change.
	churn bool
	// warmup is how many untimed rounds set-up runs.
	warmup int
	tr     *tracer
	cap    *captures
}

// gnode is one gmetad of the tree.
type gnode struct {
	name     string
	g        *gmetad.Gmetad
	net      *countNet
	addr     string // query port
	children []string
}

// emuCluster serves one emulated cluster's pre-rendered report.
type emuCluster struct {
	name string
	node string // the gmetad that polls it
	emu  interface{ WriteXML(io.Writer) error }
	ln   net.Listener
	bufs [2]bytes.Buffer
	body atomic.Pointer[[]byte]
	wg   sync.WaitGroup
}

func (c *emuCluster) serve() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			defer conn.Close()
			if b := c.body.Load(); b != nil {
				_, _ = conn.Write(*b) // a poller that hangs up early fails its own poll
			}
		}()
	}
}

// render writes the round's report into the buffer the previous round
// did not use, then publishes it.
func (c *emuCluster) render(round int) error {
	buf := &c.bufs[round%2]
	buf.Reset()
	if err := c.emu.WriteXML(buf); err != nil {
		return fmt.Errorf("render %s: %w", c.name, err)
	}
	b := buf.Bytes()
	c.body.Store(&b)
	return nil
}

// benchTree is the paper's fig-2 monitoring tree on loopback TCP: six
// N-level gmetads over twelve clusters, eleven emulated and one made
// of real gmond agents.
type benchTree struct {
	opts  treeOpts
	clk   *clock.Virtual // the gmetads' clock: 15 s per round
	gclk  *clock.Virtual // the marker cluster's gmond agents' clock
	topo  *tree.Topology
	order []string // leaf-first
	nodes map[string]*gnode

	clusters []*emuCluster
	bus      *transport.InMemBus
	agents   []*gmond.Gmond
	gmondLn  net.Listener

	wire  *wireCounts
	fs    *memFS
	watch *watcher
	round int64

	// viewHosts and viewMetrics are the hosts and numeric metrics of
	// viewCluster, the population the queries draw from.
	viewHosts   []string
	viewMetrics []string
}

// startTime derives the virtual start from the seed: it sets which
// hosts ChurnGmond changes in each round.
func startTime(seed int64) time.Time {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	return base.Add(time.Duration(seed%997) * roundStep)
}

func newTree(o treeOpts) (t *benchTree, err error) {
	t0 := startTime(o.seed)
	t = &benchTree{
		opts:  o,
		clk:   clock.NewVirtual(t0),
		gclk:  clock.NewVirtual(t0),
		topo:  tree.FigureTwo(o.hosts),
		nodes: map[string]*gnode{},
		wire:  &wireCounts{},
		fs:    newMemFS(o.tr),
	}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	t.order = t.topo.LeafFirst()
	gmondAddrs := map[string]bool{}

	// Cluster servers first: the gmetads' configs need their addresses.
	clusterAddr := map[string]string{}
	seed := o.seed * 1000
	for i := range t.topo.Nodes {
		for _, cs := range t.topo.Nodes[i].Clusters {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return t, err
			}
			clusterAddr[cs.Name] = ln.Addr().String()
			gmondAddrs[ln.Addr().String()] = true
			if cs.Name == markerCluster {
				t.gmondLn = ln
				continue
			}
			seed++
			c := &emuCluster{name: cs.Name, node: t.topo.Nodes[i].Name, ln: ln}
			if o.churn {
				c.emu = pseudo.NewChurn(cs.Name, cs.Hosts, 0.01, roundStep, t.clk)
			} else {
				c.emu = pseudo.New(cs.Name, cs.Hosts, seed, t.clk)
			}
			c.wg.Add(1)
			go c.serve()
			t.clusters = append(t.clusters, c)
		}
	}
	if err := t.startAgents(); err != nil {
		return t, err
	}

	listeners := map[string]net.Listener{}
	for i := range t.topo.Nodes {
		n := &t.topo.Nodes[i]
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return t, err
		}
		listeners[n.Name] = ln
		t.nodes[n.Name] = &gnode{name: n.Name, addr: ln.Addr().String(), children: n.Children}
	}
	for i := range t.topo.Nodes {
		n := &t.topo.Nodes[i]
		node := t.nodes[n.Name]
		var srcs []gmetad.DataSource
		for _, cs := range n.Clusters {
			srcs = append(srcs, gmetad.DataSource{Name: cs.Name, Kind: gmetad.SourceGmond,
				Addrs: []string{clusterAddr[cs.Name]}})
		}
		for _, ch := range n.Children {
			srcs = append(srcs, gmetad.DataSource{Name: ch, Kind: gmetad.SourceGmetad,
				Addrs: []string{t.nodes[ch].addr}, Subscribe: o.subscribe})
		}
		node.net = &countNet{inner: &transport.TCPNetwork{}, node: n.Name, gmondAddrs: gmondAddrs,
			wire: t.wire, tr: o.tr, cap: o.cap}
		cfg := gmetad.Config{
			GridName:    n.Name,
			Authority:   tree.Authority(n.Name),
			Network:     node.net,
			Clock:       t.clk,
			Sources:     srcs,
			Mode:        gmetad.NLevel,
			Archive:     true,
			ArchiveSpec: rrd.DefaultSpec(),
			HealthSeed:  o.seed,
			// Keepalive frames would land in the per-round byte counts;
			// every round publishes, so a live link is never idle.
			StreamHeartbeat: time.Hour,
		}
		if n.Name == t.topo.Root {
			cfg.FS = t.fs
			cfg.ArchivePath = ckptBase
		}
		g, err := gmetad.New(cfg)
		if err != nil {
			return t, fmt.Errorf("gmetad %s: %w", n.Name, err)
		}
		node.g = g
		go g.ServeQuery(listeners[n.Name])
	}
	if err := t.prefill(); err != nil {
		return t, err
	}
	for i := 0; i < o.warmup; i++ {
		if err := t.prepare(); err != nil {
			return t, err
		}
		t.pollAll(nil)
	}
	if err := t.waitLinks(30 * time.Second); err != nil {
		return t, fmt.Errorf("warm-up: %w", err)
	}
	t.watch, err = startWatcher(t.nodes[t.topo.Root].addr, "/"+markerParent+"?filter=watch")
	return t, err
}

// agentCollector supplies the marker cluster's values: every metric of
// every host is redrawn each round, from the seed.
type agentCollector struct {
	seed int64
	host int
}

func (c agentCollector) Collect(def metric.Definition, now time.Time) metric.Value {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%s/%d", c.seed, c.host, def.Name, now.Unix())
	u := float64(h.Sum64()>>11) / float64(1<<53)
	switch def.Type {
	case metric.TypeString:
		return metric.NewString("bench")
	case metric.TypeFloat:
		return metric.NewFloat(math.Round(u*10000) / 100)
	case metric.TypeDouble:
		return metric.NewDouble(math.Round(u*1e6) / 100)
	case metric.TypeTimestamp:
		return metric.NewTimestamp(now.Unix())
	case metric.TypeInt8, metric.TypeInt16, metric.TypeInt32:
		return metric.NewInt(int64(u * 100))
	}
	return metric.NewUint(uint64(u * 1000))
}

// startAgents brings up the marker cluster: one gmond agent per host on
// an in-memory multicast bus. Agent 0 listens and serves the cluster's
// report; the others only announce, so each announcement is decoded
// once, by the agent gmetad polls.
func (t *benchTree) startAgents() error {
	defs := make([]metric.Definition, len(metric.Standard))
	for i, d := range metric.Standard {
		// Every metric is re-collected and re-announced each round.
		d.CollectEvery, d.TMAX, d.ValueThreshold = uint32(roundStep/time.Second), uint32(roundStep/time.Second), 0
		defs[i] = d
	}
	t.bus = transport.NewInMemBus()
	for i := 0; i < t.opts.hosts; i++ {
		a, err := gmond.New(gmond.Config{
			Cluster:        markerCluster,
			Owner:          "bench",
			Host:           fmt.Sprintf("compute-%s-%d", markerCluster, i),
			IP:             fmt.Sprintf("10.9.%d.%d", i/256, i%256),
			Bus:            t.bus,
			Clock:          t.gclk,
			Collector:      agentCollector{seed: t.opts.seed, host: i},
			Metrics:        defs,
			HeartbeatEvery: uint32(roundStep / time.Second),
			Deaf:           i != 0,
		})
		if err != nil {
			return err
		}
		t.agents = append(t.agents, a)
	}
	go t.agents[0].Serve(t.gmondLn)
	return nil
}

// marker is the agent that publishes the freshness marker.
func (t *benchTree) marker() *gmond.Gmond { return t.agents[1] }

// prefill fills the root's archives for its local clusters with an
// hour of history before the first poll, so history answers carry full
// windows.
func (t *benchTree) prefill() error {
	root := t.nodes[t.topo.Root]
	pool := root.g.Pool()
	now := t.clk.Now()
	for _, c := range t.clusters {
		if c.node != t.topo.Root {
			continue
		}
		var buf bytes.Buffer
		if err := c.emu.WriteXML(&buf); err != nil {
			return err
		}
		rep, err := gxml.Parse(&buf)
		if err != nil {
			return fmt.Errorf("prefill %s: %w", c.name, err)
		}
		rows := rrd.DefaultSpec().Archives[0].Rows
		for _, h := range rep.Clusters[0].Hosts {
			for _, m := range h.Metrics {
				v, ok := m.Val.Float64()
				if !ok {
					continue
				}
				if c.name == viewCluster && len(t.viewHosts) == 0 {
					t.viewMetrics = append(t.viewMetrics, m.Name)
				}
				for k := rows; k > 0; k-- {
					at := now.Add(-time.Duration(k) * roundStep)
					if err := pool.UpdateSeries(c.name, h.Name, m.Name, at, v+float64(k%7)); err != nil {
						return fmt.Errorf("prefill %s/%s/%s: %w", c.name, h.Name, m.Name, err)
					}
				}
			}
			if c.name == viewCluster {
				t.viewHosts = append(t.viewHosts, h.Name)
			}
		}
	}
	if len(t.viewHosts) == 0 || len(t.viewMetrics) == 0 {
		return fmt.Errorf("prefill: no numeric series in %s", viewCluster)
	}
	return nil
}

// prepare does a round's generator work, outside every timed window:
// it advances the virtual clock, steps the gmond agents and renders the
// emulated clusters' reports.
func (t *benchTree) prepare() error {
	t.round++
	now := t.clk.Advance(roundStep)
	if !t.opts.churn {
		t.gclk.Set(now)
	}
	for _, a := range t.agents {
		a.Step(t.gclk.Now())
	}
	for _, c := range t.clusters {
		if err := c.render(int(t.round)); err != nil {
			return err
		}
	}
	return nil
}

// setMarker publishes the round number on the marker host.
func (t *benchTree) setMarker(parent int64) error {
	start := wall.Now()
	err := t.marker().SetMetric(metric.Metric{
		Name: markerMetric, Val: metric.NewUint(uint64(t.round)),
		Units: "round", Slope: metric.SlopeBoth, TMAX: 3600,
	})
	t.opts.tr.add("gmond.announce", parent, start, wall.Now())
	return err
}

// pollAll runs one leaf-first polling round over every gmetad.
func (t *benchTree) pollAll(parent *int64) {
	now := t.clk.Now()
	for _, name := range t.order {
		n := t.nodes[name]
		var id int64
		if parent != nil {
			id = t.opts.tr.id()
		}
		n.net.poll.Store(id)
		start := wall.Now()
		n.g.PollOnce(now)
		if parent != nil {
			t.opts.tr.record(id, "gmetad.pollonce."+name, *parent, t.opts.tr.curGroup(), start, wall.Now())
		}
		n.net.poll.Store(0)
	}
}

// linksCaughtUp reports whether every subscribed link has applied its
// child's current generation.
func (t *benchTree) linksCaughtUp() bool {
	if !t.opts.subscribe {
		return true
	}
	for _, n := range t.nodes {
		for _, st := range n.g.Status() {
			child, ok := t.nodes[st.Name]
			if !ok {
				continue
			}
			if !st.Streaming || st.StreamGen != child.g.Epoch() {
				return false
			}
		}
	}
	return true
}

func (t *benchTree) waitLinks(timeout time.Duration) error {
	deadline := wall.Now().Add(timeout)
	for !t.linksCaughtUp() {
		if wall.Now().After(deadline) {
			return fmt.Errorf("subscribed links did not catch up within %v", timeout)
		}
		clock.Sleep(200 * time.Microsecond)
	}
	return nil
}

// acct sums the Accounting of every gmetad.
func (t *benchTree) acct() gmetad.Snapshot {
	var total gmetad.Snapshot
	for _, n := range t.nodes {
		s := n.g.Accounting().Snapshot()
		total = addSnap(total, s)
	}
	return total
}

func addSnap(a, b gmetad.Snapshot) gmetad.Snapshot {
	a.DownloadParse += b.DownloadParse
	a.Summarize += b.Summarize
	a.Archive += b.Archive
	a.Serve += b.Serve
	a.Render += b.Render
	a.BytesIn += b.BytesIn
	a.PollFails += b.PollFails
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	a.RejectedConns += b.RejectedConns
	a.FragmentFallbacks += b.FragmentFallbacks
	a.StreamFrames += b.StreamFrames
	a.StreamGaps += b.StreamGaps
	a.StreamResyncs += b.StreamResyncs
	a.StreamFallbacks += b.StreamFallbacks
	a.Checkpoints += b.Checkpoints
	a.CheckpointFails += b.CheckpointFails
	return a
}

// shardWait sums the archive pools' lock-wait hints.
func (t *benchTree) shardWait() time.Duration {
	var total time.Duration
	for _, n := range t.nodes {
		_, w := n.g.Pool().LockContention()
		total += w
	}
	return total
}

func (t *benchTree) rootNode() *gnode { return t.nodes[t.topo.Root] }

// close stops every goroutine the tree started and waits for them.
func (t *benchTree) close() {
	if t.watch != nil {
		t.watch.stop()
	}
	for _, n := range t.nodes {
		if n.g != nil {
			n.g.Close()
		}
	}
	for _, c := range t.clusters {
		_ = c.ln.Close()
		c.wg.Wait()
	}
	for _, a := range t.agents {
		a.Close()
	}
	if t.gmondLn != nil {
		_ = t.gmondLn.Close()
	}
	if t.bus != nil {
		_ = t.bus.Close()
	}
}
