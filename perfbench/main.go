// Command perfbench is the repository's end-to-end benchmark. It stands
// up the paper's fig-2 monitoring tree on loopback TCP — six N-level
// gmetads over twelve 100-host clusters, archiving under
// rrd.DefaultSpec — runs one workload against it, checks the outputs,
// and prints every metric by name with its unit and sample count. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is split into an untraced and a traced half, and the metrics are
// the per-layer ones derived from the traced half's spans and from
// replays of captured inputs. Build and run it from the root of a
// checkout with perfbench/run.sh.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ganglia/internal/clock"
	"ganglia/internal/metric"
)

// wall is the real clock: the benchmark measures wall time, while the
// tree runs on the virtual clocks it is built with.
var wall clock.Clock = clock.Real{}

// setupReps is how many times a run stands the tree up; setup_s is the
// median, and the last tree is measured.
const setupReps = 3

// e2eDefs is every end-to-end metric, in report order. Failures are
// not a metric: they are the result's attempted and failed counts.
var e2eDefs = []metricDef{
	{name: "fresh_p50_ms", unit: "ms"},
	{name: "fresh_p90_ms", unit: "ms"},
	{name: "cpu_ms_per_round", unit: "ms"},
	{name: "wire_kb_per_round", unit: "KB"},
	{name: "heap_mb", unit: "MB"},
	{name: "q_meta_p50_ms", unit: "ms"},
	{name: "q_cluster_p50_ms", unit: "ms"},
	{name: "q_host_p50_ms", unit: "ms"},
	{name: "q_history_p50_ms", unit: "ms"},
	{name: "query_p90_ms", unit: "ms"},
	{name: "setup_s", unit: "s"},
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run: poll-tree, stream-tree, or all to run each in turn")
	seed := fl.Int64("seed", 1, "seed every generated input derives from")
	secs := fl.Int("seconds", 20, "length of the measured window, in seconds")
	trace := fl.Int("trace", 0, "1 runs the traced per-layer measurement")
	out := fl.String("out", ".bench_build", "directory for the span files and the answer log")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	todo := workloads
	if *name != "all" {
		todo = nil
		if wl, ok := findWorkload(*name); ok {
			todo = []workload{wl}
		}
	}
	if len(todo) == 0 || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: -workload %q -seconds %d -trace %d\n", *name, *secs, *trace)
		return 2
	}
	code := 0
	for _, wl := range todo {
		res, err := measure(wl, *seed, time.Duration(*secs)*time.Second, *trace == 1, *out, stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
			code = 1
			continue
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func measure(wl workload, seed int64, seconds time.Duration, traced bool, outDir string, stdout io.Writer) (*result, error) {
	for _, l := range envStamp(wl, seed) {
		fmt.Fprintln(stdout, l)
	}
	opts := wl.opts
	opts.seed = seed
	var (
		t      *benchTree
		setups sample
	)
	for i := 0; i < setupReps; i++ {
		if traced {
			opts.tr = newTracer()
		}
		opts.cap = newCaptures(traced)
		start := wall.Now()
		nt, err := newTree(opts)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, wall.Now().Sub(start).Seconds())
		if i < setupReps-1 {
			nt.close()
			runtime.GC()
			continue
		}
		t = nt
	}
	defer t.close()

	log, err := newAnswerLog(outDir)
	if err != nil {
		return nil, err
	}
	defer log.close()
	rng := rand.New(rand.NewSource(seed))

	res := &result{Metrics: map[string]map[string]any{}}
	var (
		w      *window
		layers map[string]float64
		counts map[string]int
	)
	if !traced {
		w = runTree(t, seconds, rng, log)
	} else {
		a := runTree(t, seconds/2, rng, log)
		var (
			mu   sync.Mutex
			pkts [][]byte
		)
		cancel, err := t.bus.Subscribe(func(p []byte) {
			mu.Lock()
			if len(pkts) < 20000 {
				pkts = append(pkts, append([]byte(nil), p...))
			}
			mu.Unlock()
		})
		if err != nil {
			return nil, err
		}
		opts.tr.on.Store(true)
		w = runTree(t, seconds/2, rng, log)
		cancel()
		spans := opts.tr.all()
		layers, counts, err = perLayer(layerRun{t: t, a: a, b: w, spans: spans, packets: pkts, rng: rng})
		opts.tr.on.Store(false)
		if err != nil {
			return nil, fmt.Errorf("per-layer: %w", err)
		}
		dir := filepath.Join(outDir, "trace")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		file := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, seed))
		if err := opts.tr.writeFile(file); err != nil {
			return nil, fmt.Errorf("span file: %w", err)
		}
		fmt.Fprintf(stdout, "span file: %s (%d spans)\n", file, len(spans))
		w.attempted += a.attempted
		w.failed += a.failed
		w.checked += a.checked
		w.errs = append(a.errs, w.errs...)
	}
	finalChecks(t, wl, w)
	heap := heapMB()
	res.Attempted, res.Failed = w.attempted, w.failed

	if traced {
		fmt.Fprintf(stdout, "\nper-layer metrics (traced half, %d rounds)\n", w.rounds)
		fmt.Fprintf(stdout, "%-34s %12s %-6s %7s  %-18s %s\n", "metric", "value", "unit", "n", "should move", "on")
		for _, d := range layerDefs {
			v := layers[d.name]
			if math.IsNaN(v) {
				v = 0 // the layer did no such work in this workload
			}
			fmt.Fprintf(stdout, "%-34s %12.4g %-6s %7d  %-18s %s\n", d.name, v, d.unit, counts[d.name], d.moves, d.on)
			res.Metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		}
	} else {
		vals, ns, err := e2e(w, setups, heap)
		if err != nil {
			w.fail(err)
			res.Failed = w.failed
		}
		fmt.Fprintf(stdout, "\nend-to-end metrics (%d rounds, %d queries)\n", w.rounds, len(w.qAll))
		p95, b95 := w.qAll.quantile(0.95)
		p99, b99 := w.qAll.quantile(0.99)
		fmt.Fprintf(stdout, "query tail, for reading only: p95 %.4f ms (%d beyond), p99 %.4f ms (%d beyond)\n", p95, b95, p99, b99)
		for _, d := range e2eDefs {
			if math.IsNaN(vals[d.name]) {
				w.fail(fmt.Errorf("%s has no samples", d.name))
				res.Failed = w.failed
				vals[d.name] = 0
			}
			fmt.Fprintf(stdout, "%-20s %12.4f %-3s n=%d\n", d.name, vals[d.name], d.unit, ns[d.name])
			res.Metrics[d.name] = map[string]any{"value": vals[d.name], "unit": d.unit}
		}
	}
	ratio := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Fprintf(stdout, "%-20s %12.4f ratio (%d failed of %d attempted; %d answers checked)\n",
		"fail_ratio", ratio, res.Failed, res.Attempted, w.checked)
	for _, e := range w.errs {
		fmt.Fprintf(stdout, "FAILED: %s\n", e)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// e2e derives the end-to-end metrics of an untraced window.
func e2e(w *window, setups sample, heap float64) (map[string]float64, map[string]int, error) {
	vals, ns := map[string]float64{}, map[string]int{}
	var errs []string
	tail := func(name string, s sample, p float64) {
		v, err := s.tail(p)
		if err != nil {
			errs = append(errs, name+": "+err.Error())
		}
		vals[name], ns[name] = v, len(s)
	}
	rounds := float64(max(w.rounds, 1))
	vals["fresh_p50_ms"], ns["fresh_p50_ms"] = w.fresh.median(), len(w.fresh)
	tail("fresh_p90_ms", w.fresh, 0.9)
	vals["cpu_ms_per_round"], ns["cpu_ms_per_round"] = ms(w.cpu)/rounds, w.rounds
	vals["wire_kb_per_round"], ns["wire_kb_per_round"] = float64(w.wire)/1024/rounds, w.rounds
	vals["heap_mb"], ns["heap_mb"] = heap, 1
	for _, v := range []string{"meta", "cluster", "host", "history"} {
		k := "q_" + v + "_p50_ms"
		vals[k], ns[k] = w.q[v].median(), len(w.q[v])
	}
	tail("query_p90_ms", w.qAll, 0.9)
	vals["setup_s"], ns["setup_s"] = setups.median(), len(setups)
	if len(errs) > 0 {
		return vals, ns, fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return vals, ns, nil
}

// finalChecks runs the workload's output checks on the quiet tree.
func finalChecks(t *benchTree, wl workload, w *window) {
	checkFail := func(err error) {
		w.attempted++
		if err != nil {
			w.fail(err)
		}
	}
	// The root's summary counts every generated host.
	var buf bytes.Buffer
	r := request{view: views[5], line: "/?filter=summary"}
	if _, err := ask(t.rootNode().addr, r.line, &buf); err != nil {
		checkFail(err)
	} else {
		checkFail(check(r, buf.Bytes(), t.hostCount()))
	}
	if wl.opts.subscribe {
		frames := w.acct1.StreamFrames - w.acct0.StreamFrames
		if frames <= 0 {
			checkFail(fmt.Errorf("no stream frames were applied in the window"))
		}
		// Each parent's copy of a child's summary equals the child's own.
		for _, n := range t.nodes {
			for _, ch := range n.children {
				var mine, theirs bytes.Buffer
				_, err1 := ask(n.addr, "/"+ch+"?filter=summary", &mine)
				_, err2 := ask(t.nodes[ch].addr, "/?filter=summary", &theirs)
				switch {
				case err1 != nil || err2 != nil:
					checkFail(fmt.Errorf("summary of %s: %v %v", ch, err1, err2))
				case !bytes.Equal(grid(mine.Bytes(), ch), grid(theirs.Bytes(), ch)):
					checkFail(fmt.Errorf("%s's summary of %s differs from %s's own", n.name, ch, ch))
				default:
					checkFail(nil)
				}
			}
		}
	}
}

// grid cuts the GRID element named name out of an answer, so two
// answers that frame it differently compare on the grid alone. The
// SOURCE_HEALTH lines go too: they describe a gmetad's own sources, and
// a parent does not re-serve its child's.
func grid(doc []byte, name string) []byte {
	open := []byte(`<GRID NAME="` + name + `"`)
	i := bytes.Index(doc, open)
	if i < 0 {
		return nil
	}
	j := bytes.Index(doc[i:], []byte("</GRID>"))
	if j < 0 {
		return nil
	}
	var out []byte
	for _, l := range bytes.SplitAfter(doc[i:i+j], []byte("\n")) {
		if !bytes.HasPrefix(l, []byte("<SOURCE_HEALTH ")) {
			out = append(out, l...)
		}
	}
	return out
}

// heapMB is HeapInuse after a forced collection.
func heapMB() float64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// envStamp describes the machine, toolchain, sources and inputs of the
// run.
func envStamp(wl workload, seed int64) []string {
	commit := "none (not a git checkout)"
	if _, err := os.Stat(".git"); err == nil {
		if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(b))
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return []string{
		fmt.Sprintf("workload: %s (seed %d): %s", wl.name, seed, wl.why),
		fmt.Sprintf("env: commit %s; sources %s; %s; GOMAXPROCS %d; nproc %d; cpu %s",
			commit, sourceDigest(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu),
		fmt.Sprintf("tree: fig-2, 6 N-level gmetads, 12 clusters x %d hosts, %d standard metrics per gmond host",
			hostsPerCluster, len(metric.Standard)),
	}
}

// sourceDigest hashes the program's sources, which identifies the code
// measured where no git metadata exists.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || p == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
