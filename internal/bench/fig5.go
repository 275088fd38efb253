package bench

import (
	"fmt"
	"time"

	"ganglia/internal/gmetad"
	"ganglia/internal/tree"
)

// Fig5Config parameterizes the wide-area scalability experiment
// (paper figure 5).
type Fig5Config struct {
	// ClusterSize is the host count of each of the twelve clusters;
	// the paper uses 100.
	ClusterSize int
	// Rounds is the number of measured 15-second polling rounds. The
	// paper measures a 60-minute window (240 rounds); per-round work
	// is constant, so a shorter window gives the same percentages with
	// less run time.
	Rounds int
	// WarmupRounds are executed before measurement begins.
	WarmupRounds int
	// PollInterval is the virtual time per round (the %CPU
	// denominator); the paper's gmetad polls every 15 s.
	PollInterval time.Duration
}

func (c *Fig5Config) defaults() {
	if c.ClusterSize == 0 {
		c.ClusterSize = 100
	}
	if c.Rounds == 0 {
		c.Rounds = 8
	}
	if c.WarmupRounds == 0 {
		c.WarmupRounds = 2
	}
	if c.PollInterval == 0 {
		c.PollInterval = 15 * time.Second
	}
}

// Fig5Row is one group of bars: the %CPU of one gmetad under each
// design, with the per-phase work breakdown behind it.
type Fig5Row struct {
	Node     string
	OneLevel float64
	NLevel   float64

	// OneLevelWork and NLevelWork are the raw phase deltas over the
	// measurement window, for the DetailTable breakdown.
	OneLevelWork gmetad.Snapshot
	NLevelWork   gmetad.Snapshot
}

// Fig5Result is the regenerated figure.
type Fig5Result struct {
	Config Fig5Config
	Rows   []Fig5Row
	// Leaves and NonLeaves partition the tree for shape checks.
	Leaves    []string
	NonLeaves []string
}

// RunFig5 measures per-gmetad CPU utilization in the fig-2 monitoring
// tree for both designs: each bar is the node's median %CPU over the
// measured rounds, the designs' rounds interleaved (see runDesigns).
func RunFig5(cfg Fig5Config) (*Fig5Result, error) {
	cfg.defaults()
	topo := tree.FigureTwo(cfg.ClusterSize)
	res := &Fig5Result{Config: cfg}
	for i := range topo.Nodes {
		if len(topo.Nodes[i].Children) == 0 {
			res.Leaves = append(res.Leaves, topo.Nodes[i].Name)
		} else {
			res.NonLeaves = append(res.NonLeaves, topo.Nodes[i].Name)
		}
	}

	work, err := runDesigns(cfg.ClusterSize, cfg.Rounds, cfg.WarmupRounds, cfg.PollInterval)
	if err != nil {
		return nil, fmt.Errorf("fig5 %w", err)
	}
	one, n := work[gmetad.OneLevel], work[gmetad.NLevel]
	for _, name := range topo.GmetadNames() {
		res.Rows = append(res.Rows, Fig5Row{
			Node:         name,
			OneLevel:     one.cpu[name],
			NLevel:       n.cpu[name],
			OneLevelWork: one.total[name],
			NLevelWork:   n.total[name],
		})
	}
	return res, nil
}

// DetailTable breaks each node's work into processing phases,
// explaining *why* the bars differ: the 1-level root's time goes to
// parsing and archiving the whole cluster set; N-level non-leaves
// barely parse at all.
func (r *Fig5Result) DetailTable() string {
	header := []string{"gmetad", "design", "parse", "summarize", "archive", "serve", "bytes-in"}
	var rows [][]string
	fmtDur := func(d time.Duration) string { return fmt.Sprintf("%.1fms", float64(d)/1e6) }
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Node, "1-level",
			fmtDur(row.OneLevelWork.DownloadParse),
			fmtDur(row.OneLevelWork.Summarize),
			fmtDur(row.OneLevelWork.Archive),
			fmtDur(row.OneLevelWork.Serve),
			fmt.Sprintf("%d", row.OneLevelWork.BytesIn),
		})
		rows = append(rows, []string{
			"", "N-level",
			fmtDur(row.NLevelWork.DownloadParse),
			fmtDur(row.NLevelWork.Summarize),
			fmtDur(row.NLevelWork.Archive),
			fmtDur(row.NLevelWork.Serve),
			fmt.Sprintf("%d", row.NLevelWork.BytesIn),
		})
	}
	return fmt.Sprintf("Figure 5 phase breakdown (work over %d rounds)\n%s",
		r.Config.Rounds, formatTable(header, rows))
}

// Aggregate sums the bars of one design — the figure-6 y-value at this
// cluster size ("the data point at cluster size 100 represents the sum
// of all bars in the first plot").
func (r *Fig5Result) Aggregate(mode gmetad.Mode) float64 {
	total := 0.0
	for _, row := range r.Rows {
		if mode == gmetad.OneLevel {
			total += row.OneLevel
		} else {
			total += row.NLevel
		}
	}
	return total
}

// row returns the named row.
func (r *Fig5Result) row(node string) *Fig5Row {
	for i := range r.Rows {
		if r.Rows[i].Node == node {
			return &r.Rows[i]
		}
	}
	return nil
}

// ShapeErrors checks the qualitative claims of the paper's §3.3
// discussion against the measured rows and returns any violations:
//
//  1. the 1-level design concentrates load at the root of the tree
//     (root bears the maximum 1-level load);
//  2. the N-level design drastically reduces non-leaf load ("their
//     load is drastically reduced compared to their 1-level
//     counterparts");
//  3. total work is lower under N-level ("in all data points the
//     aggregate CPU usage is less for the N-level monitor").
func (r *Fig5Result) ShapeErrors() []string {
	var errs []string
	root := r.row("root")
	if root == nil {
		return []string{"no root row"}
	}
	for _, row := range r.Rows {
		if row.Node != "root" && row.OneLevel > root.OneLevel*1.05 {
			errs = append(errs, fmt.Sprintf(
				"1-level load at %s (%.2f%%) exceeds root (%.2f%%): load not concentrated at root",
				row.Node, row.OneLevel, root.OneLevel))
		}
	}
	for _, name := range r.NonLeaves {
		row := r.row(name)
		if row.NLevel >= row.OneLevel {
			errs = append(errs, fmt.Sprintf(
				"N-level did not reduce non-leaf %s: %.2f%% vs %.2f%%",
				name, row.NLevel, row.OneLevel))
		}
	}
	if agg1, aggN := r.Aggregate(gmetad.OneLevel), r.Aggregate(gmetad.NLevel); aggN >= agg1 {
		errs = append(errs, fmt.Sprintf(
			"aggregate N-level %.2f%% not below 1-level %.2f%%", aggN, agg1))
	}
	return errs
}

// Table renders the figure as text, bars grouped by gmetad monitor.
func (r *Fig5Result) Table() string {
	header := []string{"gmetad", "1-level %CPU", "N-level %CPU"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Node,
			fmt.Sprintf("%.2f", row.OneLevel),
			fmt.Sprintf("%.2f", row.NLevel),
		})
	}
	rows = append(rows, []string{
		"TOTAL",
		fmt.Sprintf("%.2f", r.Aggregate(gmetad.OneLevel)),
		fmt.Sprintf("%.2f", r.Aggregate(gmetad.NLevel)),
	})
	return fmt.Sprintf("Figure 5: Wide-Area Scalability — %%CPU per gmetad (12 clusters × %d hosts, %d rounds @ %v)\n%s",
		r.Config.ClusterSize, r.Config.Rounds, r.Config.PollInterval,
		formatTable(header, rows))
}
