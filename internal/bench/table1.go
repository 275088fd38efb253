package bench

import (
	"fmt"
	"time"

	"ganglia/internal/gmetad"
	"ganglia/internal/tree"
	"ganglia/internal/webfront"
)

// Table1Config parameterizes the web-frontend query experiment
// (paper table 1).
type Table1Config struct {
	// ClusterSize is the host count per cluster; the paper uses 100.
	ClusterSize int
	// Samples per view; "each value in table 1 is the average of five
	// samples". The median is reported instead of the mean: one
	// scheduler stall on a shared machine can outweigh a whole N-level
	// download, which since the parser got faster is a few hundred
	// microseconds. Each sample round times every view under both
	// designs, so a stall lands in one round.
	Samples int
}

func (c *Table1Config) defaults() {
	if c.ClusterSize == 0 {
		c.ClusterSize = 100
	}
	if c.Samples == 0 {
		c.Samples = 5
	}
}

// Table1Row is one view column of the paper's table, transposed into a
// row: the viewer's download+parse time under each design and the
// speedup.
type Table1Row struct {
	View     webfront.View
	OneLevel time.Duration
	NLevel   time.Duration
	// Bytes downloaded per design, explaining the speedups.
	OneLevelBytes int64
	NLevelBytes   int64
}

// Speedup is the paper's ratio row: 1-level time / N-level time.
func (r Table1Row) Speedup() float64 {
	if r.NLevel == 0 {
		return 0
	}
	return float64(r.OneLevel) / float64(r.NLevel)
}

// Table1Result is the regenerated table.
type Table1Result struct {
	Config Table1Config
	Rows   []Table1Row
}

// RunTable1 measures the time for the web frontend to download and
// parse Ganglia XML from the sdsc gmetad node for the meta, cluster and
// host views, under both designs. "We point the viewer at the sdsc
// gmeta node for this test where the clusters have 100 hosts each."
func RunTable1(cfg Table1Config) (*Table1Result, error) {
	cfg.defaults()
	res := &Table1Result{Config: cfg}

	// The sdsc node's local cluster and one of its hosts — the paper's
	// meteor / compute-0-0.
	clusterName := "nashi-a"
	hostName := fmt.Sprintf("compute-%s-%d", clusterName, 0)
	modes := []gmetad.Mode{gmetad.OneLevel, gmetad.NLevel}
	views := []webfront.View{webfront.MetaView, webfront.ClusterView, webfront.HostView}
	type probe struct {
		run     func() (*webfront.Result, error)
		elapsed []time.Duration
		bytes   int64
	}
	probes := make(map[gmetad.Mode]map[webfront.View]*probe)
	for _, mode := range modes {
		inst, clk, err := buildInstance(mode, cfg.ClusterSize)
		if err != nil {
			return nil, fmt.Errorf("table1 %v: %w", mode, err)
		}
		defer inst.Close()
		inst.PollRound(clk.Now())
		v := &webfront.Viewer{
			Network:      inst.Net,
			Addr:         tree.QueryAddr("sdsc"),
			QuerySupport: mode == gmetad.NLevel,
		}
		probes[mode] = map[webfront.View]*probe{
			webfront.MetaView:    {run: v.Meta},
			webfront.ClusterView: {run: func() (*webfront.Result, error) { return v.Cluster(clusterName) }},
			webfront.HostView:    {run: func() (*webfront.Result, error) { return v.Host(clusterName, hostName) }},
		}
	}
	// One untimed warm-up per view to populate OS and runtime caches,
	// then cfg.Samples rounds that each time every view under both
	// designs in turn: a scheduler stall lands in one round, and the
	// medians drop it.
	for round := -1; round < cfg.Samples; round++ {
		for _, mode := range modes {
			for _, view := range views {
				pr := probes[mode][view]
				r, err := pr.run()
				if err != nil {
					return nil, fmt.Errorf("table1 %v %v: %w", mode, view, err)
				}
				if round >= 0 {
					pr.elapsed = append(pr.elapsed, r.Elapsed)
					pr.bytes = r.Bytes
				}
			}
		}
	}
	one, n := probes[gmetad.OneLevel], probes[gmetad.NLevel]
	for _, view := range views {
		res.Rows = append(res.Rows, Table1Row{
			View:          view,
			OneLevel:      median(one[view].elapsed),
			NLevel:        median(n[view].elapsed),
			OneLevelBytes: one[view].bytes,
			NLevelBytes:   n[view].bytes,
		})
	}
	return res, nil
}

// row returns the row for a view.
func (r *Table1Result) row(v webfront.View) *Table1Row {
	for i := range r.Rows {
		if r.Rows[i].View == v {
			return &r.Rows[i]
		}
	}
	return nil
}

// ShapeErrors validates the qualitative claims of §3.3:
//
//  1. N-level beats 1-level in every view;
//  2. the host view gains the most (it fetches one host instead of the
//     whole tree) and the cluster view gains the least (a full cluster
//     must be parsed either way);
//  3. under N-level, meta and host views are far cheaper than the
//     cluster view.
func (r *Table1Result) ShapeErrors() []string {
	var errs []string
	meta, clu, host := r.row(webfront.MetaView), r.row(webfront.ClusterView), r.row(webfront.HostView)
	for _, row := range r.Rows {
		if row.Speedup() <= 1 {
			errs = append(errs, fmt.Sprintf("%s view: speedup %.1f ≤ 1", row.View, row.Speedup()))
		}
	}
	if host.Speedup() <= clu.Speedup() {
		errs = append(errs, fmt.Sprintf("host speedup %.1f not above cluster speedup %.1f",
			host.Speedup(), clu.Speedup()))
	}
	if meta.Speedup() <= clu.Speedup() {
		errs = append(errs, fmt.Sprintf("meta speedup %.1f not above cluster speedup %.1f",
			meta.Speedup(), clu.Speedup()))
	}
	if meta.NLevel >= clu.NLevel {
		errs = append(errs, "N-level meta view not cheaper than cluster view")
	}
	if host.NLevel >= clu.NLevel {
		errs = append(errs, "N-level host view not cheaper than cluster view")
	}
	return errs
}

// Table renders the result in the paper's layout: columns are views,
// rows are the designs plus the speedup.
func (r *Table1Result) Table() string {
	header := []string{""}
	one := []string{"1-level"}
	n := []string{"N-level"}
	speed := []string{"Speedup"}
	bytes1 := []string{"1-level bytes"}
	bytesN := []string{"N-level bytes"}
	for _, row := range r.Rows {
		header = append(header, row.View.String())
		one = append(one, fmt.Sprintf("%.4fs", row.OneLevel.Seconds()))
		n = append(n, fmt.Sprintf("%.4fs", row.NLevel.Seconds()))
		speed = append(speed, fmt.Sprintf("%.1f", row.Speedup()))
		bytes1 = append(bytes1, fmt.Sprintf("%d", row.OneLevelBytes))
		bytesN = append(bytesN, fmt.Sprintf("%d", row.NLevelBytes))
	}
	return fmt.Sprintf("Table 1: Web-frontend time to query and parse Ganglia XML from the sdsc gmetad (clusters of %d hosts, median of %d samples)\n%s",
		r.Config.ClusterSize, r.Config.Samples,
		formatTable(header, [][]string{one, n, speed, bytes1, bytesN}))
}
