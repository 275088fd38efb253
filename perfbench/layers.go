package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"ganglia/internal/gxml"
	"ganglia/internal/metric"
	"ganglia/internal/query"
	"ganglia/internal/rrd"
	"ganglia/internal/stream"
	"ganglia/internal/summary"
)

// metricDef names one reported metric. For a per-layer metric, moves
// and on name the end-to-end metric it should move and the workload on
// which it should move it.
type metricDef struct {
	name, unit string
	moves, on  string
}

var nodeNames = []string{"root", "ucsd", "physics", "math", "sdsc", "attic"}

// layerDefs is every per-layer metric the traced run reports.
var layerDefs = func() []metricDef {
	d := []metricDef{
		{"transport.dial_us", "us", "fresh_p50_ms", "poll-tree"},
		{"transport.poll_conn_ms.gmond", "ms", "fresh_p50_ms", "poll-tree"},
		{"transport.poll_conn_ms.gmetad", "ms", "fresh_p50_ms", "poll-tree"},
		{"transport.bytes_in_kb.gmond", "KB", "wire_kb_per_round", "poll-tree"},
		{"transport.bytes_in_kb.gmetad", "KB", "wire_kb_per_round", "poll-tree"},
		{"transport.bytes_in_kb.stream", "KB", "wire_kb_per_round", "stream-tree"},
		{"gmond.announce_us", "us", "fresh_p50_ms", "poll-tree, stream-tree"},
		{"metric.decode_ns", "ns", "fresh_p50_ms", "poll-tree, stream-tree"},
		{"gmond.writexml_ms", "ms", "fresh_p50_ms", "poll-tree, stream-tree"},
		{"gxml.parse_mb_s.gmond", "MB/s", "cpu_ms_per_round", "poll-tree, stream-tree; none on q_*"},
		{"gxml.parse_mb_s.summary", "MB/s", "cpu_ms_per_round", "poll-tree, stream-tree; none on q_*"},
		{"gxml.parse_allocs_per_metric", "count", "cpu_ms_per_round", "poll-tree, stream-tree"},
		{"summary.merge_ns_per_metric", "ns", "cpu_ms_per_round", "poll-tree"},
		{"rrd.update_ns_per_sample", "ns", "cpu_ms_per_round", "poll-tree"},
		{"rrd.fetch_us", "us", "q_history_p50_ms", "poll-tree, stream-tree"},
		{"rrd.shard_wait_ms", "ms", "q_history_p50_ms", "poll-tree"},
		{"rrd.snapshot_write_ms", "ms", "setup_s", "all"},
		{"rrd.snapshot_read_ms", "ms", "setup_s", "all"},
		{"rrd.snapshot_mb", "MB", "setup_s", "all"},
		{"rrd.bytes_per_series", "B", "heap_mb", "all"},
		{"stream.frames_per_round", "count", "cpu_ms_per_round", "stream-tree; none on poll-tree"},
		{"stream.frame_kb", "KB", "wire_kb_per_round", "stream-tree; none on poll-tree"},
		{"stream.apply_us", "us", "fresh_p50_ms", "stream-tree; none on poll-tree"},
		{"stream.assemble_us", "us", "fresh_p50_ms", "stream-tree; none on poll-tree"},
		{"stream.applied_ratio", "ratio", "cpu_ms_per_round", "stream-tree"},
		{"query.parse_ns", "ns", "q_meta_p50_ms", "all (bypass: no change expected)"},
	}
	for _, n := range nodeNames {
		d = append(d, metricDef{"gmetad.pollonce_ms." + n, "ms", "cpu_ms_per_round", "poll-tree, stream-tree"})
	}
	for _, n := range nodeNames {
		d = append(d, metricDef{"gmetad.pollonce_self_ms." + n, "ms", "fresh_p50_ms", "poll-tree, stream-tree"})
	}
	for _, v := range views {
		to := "query_p90_ms"
		switch v.name {
		case "meta", "cluster", "host", "history":
			to = "q_" + v.name + "_p50_ms"
		}
		d = append(d, metricDef{"gmetad.answer_us." + v.name, "us", to, "poll-tree, stream-tree"})
	}
	d = append(d,
		metricDef{"gmetad.cache_hit_ratio", "ratio", "query_p90_ms", "poll-tree, stream-tree"},
		metricDef{"gmetad.fragment_fallbacks", "count", "q_cluster_p50_ms", "poll-tree"},
		metricDef{"gmetad.rejected_conns", "count", "failed/attempted", "all"},
	)
	for _, p := range []string{"download_parse", "summarize", "archive", "render", "serve"} {
		d = append(d, metricDef{"gmetad.phase_ms." + p, "ms", "cpu_ms_per_round", "cross-check, all"})
	}
	d = append(d,
		metricDef{"runtime.gc_cycles_per_round", "count", "cpu_ms_per_round", "poll-tree"},
		metricDef{"runtime.gc_pause_ms", "ms", "query_p90_ms", "poll-tree"},
		metricDef{"runtime.alloc_mb_per_round", "MB", "cpu_ms_per_round", "poll-tree, stream-tree"},
	)
	for _, p := range []string{"announce", "gmetad", "transport", "wait", "loop"} {
		d = append(d, metricDef{"path.round." + p + "_ms", "ms", "fresh_p50_ms", "poll-tree, stream-tree"})
	}
	for _, p := range []string{"connect", "wait", "read"} {
		d = append(d, metricDef{"path.query." + p + "_ms", "ms", "query_p90_ms", "poll-tree, stream-tree"})
	}
	d = append(d,
		metricDef{"trace.overhead_pct", "%", "(tracing cost)", "all"},
		metricDef{"trace.spans", "count", "(tracing cost)", "all"},
	)
	return d
}()

// layerRun is what the traced run hands to perLayer.
type layerRun struct {
	t       *benchTree
	a, b    *window // untraced and traced halves
	spans   []span
	packets [][]byte
	rng     *rand.Rand
}

// perLayer derives every per-layer metric from the traced half's spans
// and counters, and from replays of captured inputs after the window.
func perLayer(lr layerRun) (map[string]float64, map[string]int, error) {
	t, b := lr.t, lr.b
	out := map[string]float64{}
	counts := map[string]int{}
	set := func(name string, v float64, n int) { out[name], counts[name] = v, n }
	med := func(name string, s sample) { set(name, s.median(), len(s)) }

	byName := map[string]sample{}
	self := selfTimes(lr.spans)
	selfBy := map[string]sample{}
	for _, s := range lr.spans {
		byName[s.Name] = append(byName[s.Name], ms(s.dur()))
		selfBy[s.Name] = append(selfBy[s.Name], ms(self[s.ID]))
	}
	rounds := float64(max(b.rounds, 1))

	// transport
	med("transport.dial_us", scale(byName["transport.dial"], 1000))
	med("transport.poll_conn_ms.gmond", byName["transport.poll_conn.gmond"])
	med("transport.poll_conn_ms.gmetad", byName["transport.poll_conn.gmetad"])
	for _, k := range kinds {
		set("transport.bytes_in_kb."+k, float64(b.wireKind[k])/1024/rounds, b.rounds)
	}

	// gmond, metric
	med("gmond.announce_us", scale(byName["gmond.announce"], 1000))
	set("metric.decode_ns", decodeNs(lr.packets), len(lr.packets))
	var wx sample
	for i := 0; i < 10; i++ {
		start := wall.Now()
		if err := t.agents[0].WriteXML(io.Discard); err != nil {
			return nil, nil, err
		}
		wx = append(wx, ms(wall.Now().Sub(start)))
	}
	med("gmond.writexml_ms", wx)

	// gxml, summary, rrd replays on real inputs
	report := t.opts.cap.lastOf(kindGmond)
	// A summary answer as a parent downloads it: captured from a poll,
	// or, where every gmetad link streams, asked of ucsd now.
	sumAns := t.opts.cap.lastOf(kindGmetad)
	if len(sumAns) == 0 {
		var buf bytes.Buffer
		if _, err := ask(t.nodes["ucsd"].addr, "/?filter=summary", &buf); err != nil {
			return nil, nil, err
		}
		sumAns = buf.Bytes()
	}
	if len(report) == 0 {
		return nil, nil, fmt.Errorf("no gmond report was captured")
	}
	mbs, allocs, err := parseRate(report)
	if err != nil {
		return nil, nil, err
	}
	set("gxml.parse_mb_s.gmond", mbs, 20)
	set("gxml.parse_allocs_per_metric", allocs, 5)
	if mbs, _, err = parseRate(sumAns); err != nil {
		return nil, nil, err
	}
	set("gxml.parse_mb_s.summary", mbs, 20)
	rep, err := gxml.Parse(bytes.NewReader(report))
	if err != nil || len(rep.Clusters) != 1 {
		return nil, nil, fmt.Errorf("captured gmond report: %v", err)
	}
	set("summary.merge_ns_per_metric", mergeNs(rep.Clusters[0]), 50)
	set("rrd.update_ns_per_sample", updateNs(rep.Clusters[0], t.clk.Now()), 30)
	set("rrd.bytes_per_series", bytesPerSeries(), 2000)

	var fetch sample
	pool := t.rootNode().g.Pool()
	for i := 0; i < 200; i++ {
		r := t.draw(views[3], lr.rng.Int(), lr.rng.Int())
		start := wall.Now()
		pts := pool.FetchRangeSeries(r.cluster, r.host, r.metric, rrd.Average, r.start, r.end, historyStep)
		fetch = append(fetch, ms(wall.Now().Sub(start))*1000)
		if len(pts) == 0 {
			return nil, nil, fmt.Errorf("history fetch %s/%s/%s returned nothing", r.cluster, r.host, r.metric)
		}
	}
	med("rrd.fetch_us", fetch)
	set("rrd.shard_wait_ms", ms(b.wait1-b.wait0), b.rounds)

	// Checkpoints: three of the root's pool into the in-memory FS, each
	// read back.
	for i := 0; i < 3; i++ {
		if err := t.rootNode().g.Checkpoint(); err != nil {
			return nil, nil, err
		}
	}
	med("rrd.snapshot_write_ms", spansNamed(t.opts.tr.all(), "rrd.snapshot_write"))
	name, snap := t.fs.newest(ckptBase)
	if len(snap) == 0 {
		return nil, nil, fmt.Errorf("no checkpoint in the in-memory FS")
	}
	for i := 0; i < 3; i++ {
		f, err := t.fs.Open(name)
		if err != nil {
			return nil, nil, err
		}
		p, err := rrd.ReadSnapshot(f)
		_ = f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("read back %s: %w", name, err)
		}
		if p.Len() != pool.Len() {
			return nil, nil, fmt.Errorf("snapshot %s holds %d series, the root %d", name, p.Len(), pool.Len())
		}
	}
	med("rrd.snapshot_read_ms", spansNamed(t.opts.tr.all(), "rrd.snapshot_read"))
	set("rrd.snapshot_mb", float64(len(snap))/(1<<20), 1)

	// stream. Accounting counts a frame once where it is sent and once
	// where it is applied, so the tree's frames are half the sum.
	frames := (b.acct1.StreamFrames - b.acct0.StreamFrames) / 2
	set("stream.frames_per_round", float64(frames)/rounds, b.rounds)
	if frames > 0 {
		set("stream.frame_kb", float64(b.wireKind[kindStream])/1024/float64(frames), int(frames))
	} else {
		set("stream.frame_kb", 0, 0)
	}
	apply, assemble, received, err := replayStreams(t.opts.cap.streamLinks())
	if err != nil {
		return nil, nil, err
	}
	med("stream.apply_us", apply)
	med("stream.assemble_us", assemble)
	// The root only receives: the frames it applied over the frames that
	// reached it on its links.
	ratio := 0.0
	if received["root"] > 0 {
		ratio = float64(b.rootAcct1.StreamFrames) / float64(received["root"])
	}
	set("stream.applied_ratio", ratio, received["root"])

	// query parse and per-view answers
	var lines []string
	for i := 0; i < 50; i++ {
		for _, v := range views {
			lines = append(lines, t.draw(v, lr.rng.Int(), lr.rng.Int()).line)
		}
	}
	start := wall.Now()
	for rep := 0; rep < 20; rep++ {
		for _, l := range lines {
			if _, err := query.Parse(l); err != nil {
				return nil, nil, err
			}
		}
	}
	set("query.parse_ns", float64(wall.Now().Sub(start).Nanoseconds())/float64(20*len(lines)), 20*len(lines))
	root := t.rootNode().g
	for _, v := range views {
		q, err := query.Parse(t.draw(v, lr.rng.Int(), lr.rng.Int()).line)
		if err != nil {
			return nil, nil, err
		}
		var s sample
		for i := 0; i < 30; i++ {
			start := wall.Now()
			if err := root.WriteAnswer(io.Discard, q); err != nil {
				return nil, nil, fmt.Errorf("WriteAnswer %s: %w", v.name, err)
			}
			s = append(s, ms(wall.Now().Sub(start))*1000)
		}
		med("gmetad.answer_us."+v.name, s)
	}

	// gmetad
	for _, n := range nodeNames {
		med("gmetad.pollonce_ms."+n, byName["gmetad.pollonce."+n])
		med("gmetad.pollonce_self_ms."+n, selfBy["gmetad.pollonce."+n])
	}
	hits := b.rootAcct1.CacheHits - b.rootAcct0.CacheHits
	miss := b.rootAcct1.CacheMisses - b.rootAcct0.CacheMisses
	set("gmetad.cache_hit_ratio", float64(hits)/float64(max(hits+miss, 1)), int(hits+miss))
	set("gmetad.fragment_fallbacks", float64(b.acct1.FragmentFallbacks-b.acct0.FragmentFallbacks), b.rounds)
	set("gmetad.rejected_conns", float64(b.acct1.RejectedConns-b.acct0.RejectedConns), b.rounds)
	for _, p := range []struct {
		name string
		d    time.Duration
	}{
		{"download_parse", b.acct1.DownloadParse - b.acct0.DownloadParse},
		{"summarize", b.acct1.Summarize - b.acct0.Summarize},
		{"archive", b.acct1.Archive - b.acct0.Archive},
		{"render", b.acct1.Render - b.acct0.Render},
		{"serve", b.acct1.Serve - b.acct0.Serve},
	} {
		set("gmetad.phase_ms."+p.name, ms(p.d)/rounds, b.rounds)
	}

	// runtime
	set("runtime.gc_cycles_per_round", float64(b.mem1.NumGC-b.mem0.NumGC)/rounds, b.rounds)
	set("runtime.gc_pause_ms", float64(b.mem1.PauseTotalNs-b.mem0.PauseTotalNs)/1e6/rounds, b.rounds)
	set("runtime.alloc_mb_per_round", float64(b.mem1.TotalAlloc-b.mem0.TotalAlloc)/(1<<20)/rounds, b.rounds)

	// self time along the blocking path
	rp, qp := blockingPaths(lr.spans, self)
	for _, p := range []string{"announce", "gmetad", "transport", "wait", "loop"} {
		med("path.round."+p+"_ms", rp[p])
	}
	for _, p := range []string{"connect", "wait", "read"} {
		med("path.query."+p+"_ms", qp[p])
	}

	// tracing overhead: the traced half's median round against the
	// untraced half's
	set("trace.overhead_pct", 100*(b.roundMs.median()/lr.a.roundMs.median()-1), b.rounds)
	set("trace.spans", float64(len(lr.spans)), len(lr.spans))

	for _, d := range layerDefs {
		if _, ok := out[d.name]; !ok {
			return nil, nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
	}
	return out, counts, nil
}

func scale(s sample, k float64) sample {
	out := make(sample, len(s))
	for i, x := range s {
		out[i] = x * k
	}
	return out
}

func spansNamed(spans []span, name string) sample {
	var s sample
	for _, sp := range spans {
		if sp.Name == name {
			s = append(s, ms(sp.dur()))
		}
	}
	return s
}

// blockingPaths splits each round and each query into the self time of
// the steps that block it.
func blockingPaths(spans []span, self map[int64]time.Duration) (round, qry map[string]sample) {
	type acc map[string]time.Duration
	rounds, queries := map[int64]acc{}, map[int64]acc{}
	for _, s := range spans {
		switch {
		case s.Name == "round":
			rounds[s.ID] = acc{"loop": self[s.ID]}
		case strings.HasPrefix(s.Name, "query.") && s.Parent == 0:
			queries[s.ID] = acc{}
		}
	}
	for _, s := range spans {
		if r, ok := rounds[s.Parent]; ok {
			switch {
			case s.Name == "gmond.announce":
				r["announce"] += self[s.ID]
			case strings.HasPrefix(s.Name, "gmetad.pollonce."):
				r["gmetad"] += self[s.ID]
				r["transport"] += s.dur() - self[s.ID]
			case strings.HasPrefix(s.Name, "wait."):
				r["wait"] += self[s.ID]
			}
		}
		if q, ok := queries[s.Parent]; ok {
			q[strings.TrimPrefix(s.Name, "query.")] += s.dur()
		}
	}
	round, qry = map[string]sample{}, map[string]sample{}
	for _, r := range rounds {
		for _, p := range []string{"announce", "gmetad", "transport", "wait", "loop"} {
			round[p] = append(round[p], ms(r[p]))
		}
	}
	for _, q := range queries {
		for _, p := range []string{"connect", "wait", "read"} {
			qry[p] = append(qry[p], ms(q[p]))
		}
	}
	return round, qry
}

// decodeNs times DecodeAnnouncement over captured packets.
func decodeNs(pkts [][]byte) float64 {
	if len(pkts) == 0 {
		return 0
	}
	const reps = 200
	start := wall.Now()
	for i := 0; i < reps; i++ {
		for _, p := range pkts {
			_, _ = metric.DecodeAnnouncement(p) // captured off a live bus; validity is not what is timed
		}
	}
	return float64(wall.Now().Sub(start).Nanoseconds()) / float64(reps*len(pkts))
}

// parseRate times ParseStream over one captured document: MB/s, and
// allocations per metric element.
func parseRate(doc []byte) (mbs, allocsPerMetric float64, err error) {
	metrics := 0
	h := &gxml.Handler{Metric: func(metric.Metric) { metrics++ }, SummaryMetric: func(summary.Metric) { metrics++ }}
	if err := gxml.ParseStream(bytes.NewReader(doc), h); err != nil {
		return 0, 0, fmt.Errorf("captured document: %w", err)
	}
	perDoc := metrics
	var s sample
	for i := 0; i < 20; i++ {
		start := wall.Now()
		_ = gxml.ParseStream(bytes.NewReader(doc), h)
		s = append(s, wall.Now().Sub(start).Seconds())
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 5; i++ {
		_ = gxml.ParseStream(bytes.NewReader(doc), h)
	}
	runtime.ReadMemStats(&m1)
	return float64(len(doc)) / (1 << 20) / s.median(),
		float64(m1.Mallocs-m0.Mallocs) / float64(5*max(perDoc, 1)), nil
}

// mergeNs times building one cluster's summary and folding it into a
// total and a tracker, per metric.
func mergeNs(c *gxml.Cluster) float64 {
	metrics := 0
	for _, h := range c.Hosts {
		metrics += len(h.Metrics)
	}
	tracker := summary.NewTracker()
	var s sample
	for i := 0; i < 50; i++ {
		start := wall.Now()
		sum := summary.New()
		for _, h := range c.Hosts {
			sum.AddHost(true)
			for _, m := range h.Metrics {
				sum.AddMetric(m)
			}
		}
		total := summary.New()
		total.Merge(sum)
		tracker.Publish(c.Name, uint64(i+1), sum)
		s = append(s, float64(wall.Now().Sub(start).Nanoseconds()))
	}
	return s.median() / float64(max(metrics, 1))
}

// updateNs replays a cluster's samples, under the root's two local
// cluster names, into a fresh pool: ns per sample, once every series
// exists.
func updateNs(c *gxml.Cluster, now time.Time) float64 {
	pool := rrd.NewPool(rrd.DefaultSpec())
	var s sample
	n := 0
	for round := 0; round < 31; round++ {
		at := now.Add(time.Duration(round) * roundStep)
		start := wall.Now()
		n = 0
		for _, cl := range []string{"meteor-a", "meteor-b"} {
			for _, h := range c.Hosts {
				for _, m := range h.Metrics {
					if v, ok := m.Val.Float64(); ok {
						_ = pool.UpdateSeries(cl, h.Name, m.Name, at, v) // a fresh pool takes every in-order sample
						n++
					}
				}
			}
		}
		if round > 0 {
			s = append(s, float64(wall.Now().Sub(start).Nanoseconds())/float64(max(n, 1)))
		}
	}
	return s.median()
}

// bytesPerSeries is the heap one archived series holds under
// rrd.DefaultSpec.
func bytesPerSeries() float64 {
	const n = 2000
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	pool := rrd.NewPool(rrd.DefaultSpec())
	at := time.Unix(1_700_000_000, 0)
	for i := 0; i < n; i++ {
		_ = pool.UpdateSeries("c", fmt.Sprintf("h%d", i/30), fmt.Sprintf("m%d", i%30), at, 1)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(pool)
	return float64(int64(m1.HeapInuse)-int64(m0.HeapInuse)) / n
}

var footer = []byte("</GANGLIA_XML>\n")

// replayStreams re-applies every captured subscription link's frames
// through a fresh ledger, timing ReadFrame+DecodeDelta+Apply and
// Assemble per frame. received counts the frames read, by the node
// that received them.
func replayStreams(links map[string][]byte) (apply, assemble sample, received map[string]int, err error) {
	var out []byte
	received = map[string]int{}
	for link, data := range links {
		node, _, _ := strings.Cut(link, "<-")
		br := bufio.NewReader(bytes.NewReader(data))
		led := stream.NewLedger()
		for {
			start := wall.Now()
			f, err := stream.ReadFrame(br, 64<<20)
			if err != nil {
				break // the capture ends mid-frame or at its end
			}
			received[node]++
			if f.Type != stream.FrameFull && f.Type != stream.FrameDelta {
				continue
			}
			d, err := stream.DecodeDelta(f.Payload)
			if err == nil {
				err = led.Apply(d, f.Type == stream.FrameFull)
			}
			if err != nil {
				return nil, nil, nil, fmt.Errorf("replay %s: %w", link, err)
			}
			mid := wall.Now()
			out = led.Assemble(out[:0], footer)
			apply = append(apply, ms(mid.Sub(start))*1000)
			assemble = append(assemble, ms(wall.Now().Sub(mid))*1000)
		}
	}
	return apply, assemble, received, nil
}
