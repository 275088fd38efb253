package bench

import (
	"fmt"
	"time"

	"ganglia/internal/gmetad"
)

// Fig6Config parameterizes the cluster-size sweep (paper figure 6).
type Fig6Config struct {
	// Sizes are the per-cluster host counts; the paper sweeps
	// {10, 50, 100, 150, 200, 300, 400, 500}.
	Sizes []int
	// Rounds, WarmupRounds, PollInterval as in Fig5Config.
	Rounds       int
	WarmupRounds int
	PollInterval time.Duration
}

// PaperSizes is the paper's x-axis.
var PaperSizes = []int{10, 50, 100, 150, 200, 300, 400, 500}

func (c *Fig6Config) defaults() {
	if len(c.Sizes) == 0 {
		c.Sizes = PaperSizes
	}
	if c.Rounds == 0 {
		c.Rounds = 4
	}
	if c.WarmupRounds == 0 {
		c.WarmupRounds = 1
	}
	if c.PollInterval == 0 {
		c.PollInterval = 15 * time.Second
	}
}

// Fig6Point is one x-position of the figure: the aggregate %CPU over
// all six gmetad nodes at one cluster size, for each design.
type Fig6Point struct {
	ClusterSize int
	OneLevel    float64
	NLevel      float64
}

// Fig6Result is the regenerated figure.
type Fig6Result struct {
	Config Fig6Config
	Points []Fig6Point
}

// RunFig6 sweeps the monitored cluster size with the monitoring tree
// unchanged, measuring aggregate CPU utilization across all gmetad
// nodes under both designs: the median over the measured rounds of the
// nodes' summed %CPU, the designs' rounds interleaved (see runDesigns).
func RunFig6(cfg Fig6Config) (*Fig6Result, error) {
	cfg.defaults()
	res := &Fig6Result{Config: cfg}
	for _, size := range cfg.Sizes {
		work, err := runDesigns(size, cfg.Rounds, cfg.WarmupRounds, cfg.PollInterval)
		if err != nil {
			return nil, fmt.Errorf("fig6 size %d %w", size, err)
		}
		res.Points = append(res.Points, Fig6Point{
			ClusterSize: size,
			OneLevel:    work[gmetad.OneLevel].aggregate,
			NLevel:      work[gmetad.NLevel].aggregate,
		})
	}
	return res, nil
}

// ShapeErrors checks the qualitative claims of §3.3:
//
//  1. the N-level aggregate is below the 1-level aggregate at every
//     cluster size;
//  2. both curves grow with cluster size (monotonic trend end-to-end);
//  3. the 1-level design scales worse: its absolute growth over the
//     sweep exceeds N-level's ("the 1-level version exhibits a
//     higher-sloped scaling behavior").
func (r *Fig6Result) ShapeErrors() []string {
	var errs []string
	if len(r.Points) < 2 {
		return []string{"not enough points"}
	}
	for _, p := range r.Points {
		if p.NLevel >= p.OneLevel {
			errs = append(errs, fmt.Sprintf(
				"size %d: N-level %.2f%% not below 1-level %.2f%%",
				p.ClusterSize, p.NLevel, p.OneLevel))
		}
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if last.OneLevel <= first.OneLevel {
		errs = append(errs, "1-level curve does not grow with cluster size")
	}
	if last.NLevel <= first.NLevel {
		errs = append(errs, "N-level curve does not grow with cluster size")
	}
	grow1 := last.OneLevel - first.OneLevel
	growN := last.NLevel - first.NLevel
	if grow1 <= growN {
		errs = append(errs, fmt.Sprintf(
			"1-level growth %.2f%% not steeper than N-level %.2f%%", grow1, growN))
	}
	return errs
}

// Table renders the figure as text.
func (r *Fig6Result) Table() string {
	header := []string{"cluster size", "1-level agg %CPU", "N-level agg %CPU", "ratio"}
	var rows [][]string
	for _, p := range r.Points {
		ratio := "-"
		if p.NLevel > 0 {
			ratio = fmt.Sprintf("%.1fx", p.OneLevel/p.NLevel)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.ClusterSize),
			fmt.Sprintf("%.2f", p.OneLevel),
			fmt.Sprintf("%.2f", p.NLevel),
			ratio,
		})
	}
	return fmt.Sprintf("Figure 6: Aggregate %%CPU over 6 gmetad nodes vs cluster size (12 clusters, %d rounds @ %v)\n%s",
		r.Config.Rounds, r.Config.PollInterval, formatTable(header, rows))
}
