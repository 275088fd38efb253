// History experiment: query throughput of the sharded archive store.
// The paper's §4 lesson is that gmetad's archiving "makes too many
// updates to the file-based databases" — the update path and the
// history-read path fight over the same store. This experiment measures
// history queries per second against a populated archive pool twice:
// quiet, and while a poll loop is concurrently folding a full cluster's
// samples into the same pool. Shard-partitioned locking is the claim
// under test: the concurrent figure must stay a healthy fraction of the
// quiet one. The columnar slab's compactness is reported as snapshot
// bytes per series.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"ganglia/internal/clock"
	"ganglia/internal/gmetad"
	"ganglia/internal/pseudo"
	"ganglia/internal/rrd"
	"ganglia/internal/transport"
)

// HistoryConfig parameterizes the history experiment.
type HistoryConfig struct {
	// Hosts is the archived cluster's size.
	Hosts int
	// Rounds is the number of polling rounds that populate the archives
	// before measurement.
	Rounds int
	// Queries is how many history queries each measurement leg serves
	// per repetition (see historyReps).
	Queries int
	// Shards is the archive pool's shard count; 0 means the default.
	Shards int
}

func (c *HistoryConfig) defaults() {
	if c.Hosts == 0 {
		c.Hosts = 64
	}
	if c.Rounds == 0 {
		c.Rounds = 24
	}
	if c.Queries == 0 {
		c.Queries = 400
	}
}

// HistoryResult is the regenerated history experiment.
type HistoryResult struct {
	Config HistoryConfig `json:"config"`

	// Series and InternedNames describe the populated store; Shards is
	// the pool layout measured.
	Series        int `json:"series"`
	Shards        int `json:"shards"`
	InternedNames int `json:"interned_names"`

	// QuietQPS is history queries per second with the poll loop idle;
	// ConcurrentQPS is the same query mix while a poll loop concurrently
	// updates every series; ConcurrentRatio is their quotient.
	QuietQPS        float64 `json:"quiet_queries_per_sec"`
	ConcurrentQPS   float64 `json:"concurrent_poll_queries_per_sec"`
	ConcurrentRatio float64 `json:"concurrent_to_quiet_ratio"`
	// PollRounds is how many polling rounds landed during the
	// concurrent leg — proof the contention was real.
	PollRounds int64 `json:"poll_rounds_during_queries"`

	// PointsPerQuery is the mean POINT elements per answered query,
	// from the daemon's accounting.
	PointsPerQuery float64 `json:"points_per_query"`

	// SnapshotBytes is the checkpoint size of the populated pool;
	// BytesPerSeries divides it by Series — the columnar store's
	// durable footprint.
	SnapshotBytes  int64   `json:"snapshot_bytes"`
	BytesPerSeries float64 `json:"bytes_per_series"`

	// ShardContended and ShardWaitMs are the pool's cumulative
	// lock-wait hints after both legs.
	ShardContended int64   `json:"shard_lock_contended"`
	ShardWaitMs    float64 `json:"shard_lock_wait_ms"`
}

// ShapeErrors re-checks the experiment's qualitative claims: the store
// must actually be populated and queried, the columnar snapshot must
// stay compact, and concurrent polling must not collapse query
// throughput (the shard-isolation claim; the bound is loose because CI
// machines are noisy).
func (r *HistoryResult) ShapeErrors() []string {
	var errs []string
	if r.Series <= 0 {
		errs = append(errs, "no series archived — the experiment measured an empty store")
	}
	if r.QuietQPS <= 0 || r.ConcurrentQPS <= 0 {
		errs = append(errs, "a measurement leg served no queries")
	}
	if r.PointsPerQuery <= 0 {
		errs = append(errs, "answered history queries carried no points")
	}
	if r.PollRounds <= 0 {
		errs = append(errs, "no polling round landed during the concurrent leg — nothing contended")
	}
	if r.Series > 0 && (r.BytesPerSeries <= 0 || r.BytesPerSeries > 64_000) {
		errs = append(errs, fmt.Sprintf("snapshot costs %.0f bytes/series — the columnar store is not compact",
			r.BytesPerSeries))
	}
	if r.ConcurrentRatio < 0.10 {
		errs = append(errs, fmt.Sprintf(
			"concurrent-poll throughput fell to %.0f%% of quiet — shard locks are not isolating readers from the poll loop",
			100*r.ConcurrentRatio))
	}
	return errs
}

// Table renders the result for terminals, in the repo's experiment
// style.
func (r *HistoryResult) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "History — archive query throughput (%d hosts, %d series, %d shards)\n",
		r.Config.Hosts, r.Series, r.Shards)
	rows := [][]string{
		{"quiet", fmt.Sprintf("%.0f q/s", r.QuietQPS), fmt.Sprintf("%.1f pts/q", r.PointsPerQuery)},
		{"during poll", fmt.Sprintf("%.0f q/s", r.ConcurrentQPS), fmt.Sprintf("%.0f%% of quiet", 100*r.ConcurrentRatio)},
	}
	sb.WriteString(formatTable([]string{"leg", "throughput", "detail"}, rows))
	fmt.Fprintf(&sb, "store: %d interned names, %d snapshot bytes (%.0f/series), %d contended locks (%.2fms waited)\n",
		r.InternedNames, r.SnapshotBytes, r.BytesPerSeries, r.ShardContended, r.ShardWaitMs)
	return sb.String()
}

// WriteJSON writes the result as the committed regression baseline.
func (r *HistoryResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// historyArchive is the measured archive layout: every CF at full
// resolution plus a coarser rollup, the layout the query corpus needs.
func historyArchive() rrd.Spec {
	return rrd.Spec{
		Step:      15 * time.Second,
		Heartbeat: 60 * time.Second,
		Archives: []rrd.ArchiveSpec{
			{Step: 15 * time.Second, Rows: 64, CF: rrd.Average},
			{Step: 15 * time.Second, Rows: 64, CF: rrd.Max},
			{Step: 60 * time.Second, Rows: 64, CF: rrd.Average},
		},
	}
}

// historyReps is how many times each measurement leg is repeated.
const historyReps = 5

// RunHistory measures the history query engine quiet and under
// concurrent poll load.
func RunHistory(cfg HistoryConfig) (*HistoryResult, error) {
	cfg.defaults()
	res := &HistoryResult{Config: cfg}

	netw := transport.NewInMemNetwork()
	clk := clock.NewVirtual(t0)
	interval := 15 * time.Second

	emu := pseudo.New("sdsc", cfg.Hosts, 1, clk)
	defer emu.Close()
	l, err := netw.Listen("sdsc:8649")
	if err != nil {
		return nil, err
	}
	go emu.Serve(l)

	g, err := gmetad.New(gmetad.Config{
		GridName:  "sdsc",
		Authority: "http://sdsc/",
		Network:   netw,
		Clock:     clk,
		Sources: []gmetad.DataSource{{
			Name: "sdsc", Kind: gmetad.SourceGmond, Addrs: []string{"sdsc:8649"},
		}},
		Archive:       true,
		ArchiveSpec:   historyArchive(),
		ArchiveShards: cfg.Shards,
	})
	if err != nil {
		return nil, err
	}
	defer g.Close()
	ql, err := netw.Listen("sdsc:8652")
	if err != nil {
		return nil, err
	}
	go g.ServeQuery(ql)

	for i := 0; i < cfg.Rounds; i++ {
		clk.Advance(interval)
		g.PollOnce(clk.Now())
	}
	pool := g.Pool()
	res.Series = pool.Len()
	res.Shards = pool.Shards()
	res.InternedNames = pool.InternedNames()

	// The query mix: bare dumps, consolidated ranges, and a cross-host
	// reduction, spread over the cluster's hosts.
	queries := []string{
		"/sdsc/compute-sdsc-0/load_one?filter=history",
		"/sdsc/compute-sdsc-1/cpu_idle?filter=history",
		"/sdsc/compute-sdsc-2/load_one?step=60",
		"/sdsc/compute-sdsc-3/load_one?step=60&cf=MAX",
		"/sdsc/" + gmetad.SummaryHost + "/cpu_num?filter=history",
		"/sdsc/load_one?topk=5",
	}
	ask := func(q string) error {
		conn, err := netw.Dial("sdsc:8652")
		if err != nil {
			return err
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, q+"\n"); err != nil {
			return err
		}
		buf := make([]byte, 32<<10)
		var head []byte
		for {
			n, err := conn.Read(buf)
			if n > 0 && len(head) < 5 {
				head = append(head, buf[:n]...)
			}
			if err != nil {
				break
			}
		}
		if len(head) < 5 || string(head[:5]) != "<?xml" {
			return fmt.Errorf("query %s did not answer with XML: %.60q", q, head)
		}
		return nil
	}
	// Warm pass: every query must resolve before anything is timed.
	for _, q := range queries {
		if err := ask(q); err != nil {
			return nil, err
		}
	}

	measure := func(n int) (float64, error) {
		start := time.Now() //lint:allow clock bench measures real query throughput
		for i := 0; i < n; i++ {
			if err := ask(queries[i%len(queries)]); err != nil {
				return 0, err
			}
		}
		elapsed := time.Since(start) //lint:allow clock bench measures real query throughput
		if elapsed <= 0 {
			elapsed = time.Nanosecond
		}
		return float64(n) / elapsed.Seconds(), nil
	}
	// duringPoll measures n queries while a poll loop folds the whole
	// cluster's samples into the pool.
	var rounds atomic.Int64
	duringPoll := func(n int) (float64, error) {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			// Stop is checked after each round, not before the first —
			// even a measurement faster than one poll contends with
			// one. The pause between rounds models a
			// frequent-but-not-saturating polling cadence; an unpaced
			// loop would measure CPU starvation, not lock contention.
			for {
				clk.Advance(interval)
				g.PollOnce(clk.Now())
				rounds.Add(1)
				select {
				case <-stop:
					return
				default:
				}
				time.Sleep(2 * time.Millisecond) //lint:allow clock bench paces the real concurrent poll loop
			}
		}()
		qps, err := measure(n)
		close(stop)
		<-done
		return qps, err
	}

	// The two legs run in turn, historyReps times, so both see the same
	// machine conditions; each leg's throughput is the median over its
	// repetitions, which drops the ones a scheduler stall landed in.
	before := g.Accounting().Snapshot()
	var quiet, concurrent [historyReps]float64
	for i := range quiet {
		if quiet[i], err = measure(cfg.Queries); err == nil {
			concurrent[i], err = duringPoll(cfg.Queries)
		}
		if err != nil {
			return nil, err
		}
	}
	res.QuietQPS, res.ConcurrentQPS = median(quiet[:]), median(concurrent[:])
	res.PollRounds = rounds.Load()
	if res.QuietQPS > 0 {
		res.ConcurrentRatio = res.ConcurrentQPS / res.QuietQPS
	}

	after := g.Accounting().Snapshot().Sub(before)
	if after.HistoryQueries > 0 {
		res.PointsPerQuery = float64(after.HistoryPoints) / float64(after.HistoryQueries)
	}
	res.ShardContended = g.Accounting().Snapshot().ArchiveShardContended
	res.ShardWaitMs = float64(g.Accounting().Snapshot().ArchiveShardWait) / float64(time.Millisecond)

	var counter countWriter
	if err := pool.WriteSnapshot(&counter); err != nil {
		return nil, err
	}
	res.SnapshotBytes = counter.n
	if res.Series > 0 {
		res.BytesPerSeries = float64(res.SnapshotBytes) / float64(res.Series)
	}
	return res, nil
}

// countWriter counts bytes without keeping them.
type countWriter struct{ n int64 }

func (c *countWriter) Write(b []byte) (int, error) {
	c.n += int64(len(b))
	return len(b), nil
}
