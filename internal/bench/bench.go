// Package bench reproduces the paper's experimental section (§3): the
// wide-area scalability experiment of figure 5, the cluster-size sweep
// of figure 6, the web-frontend query timings of table 1, and the §2.1
// claim that a 128-node cluster's monitoring traffic stays under
// 56 kbit/s.
//
// All experiments run the six-gmetad, twelve-cluster monitoring tree of
// figure 2, with clusters simulated by pseudo-gmond emulators — exactly
// the paper's setup. Time is virtual (a polling round advances the
// clock 15 s instantly), while per-phase processing cost is measured
// with the real monotonic clock; %CPU is measured work divided by the
// virtual window, the same ratio the paper read from `ps` on
// otherwise-idle machines.
package bench

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"ganglia/internal/clock"
	"ganglia/internal/gmetad"
	"ganglia/internal/rrd"
	"ganglia/internal/tree"
)

// experimentArchive is a deliberately small round-robin layout so that
// the Fig 6 sweep (up to 6000 hosts × ~30 metrics of full-resolution
// archives on the 1-level root) stays within laptop memory. Archive
// update *cost* per sample is what the experiment measures, and that is
// independent of ring length.
func experimentArchive() rrd.Spec {
	return rrd.Spec{
		Step:      15 * time.Second,
		Heartbeat: 60 * time.Second,
		Archives:  []rrd.ArchiveSpec{{Step: 15 * time.Second, Rows: 32, CF: rrd.Average}},
	}
}

var t0 = time.Unix(1_057_000_000, 0)

// buildInstance stands up the fig-2 tree in the given mode with
// archiving enabled, using the experiment archive layout.
func buildInstance(mode gmetad.Mode, hostsPerCluster int) (*tree.Instance, *clock.Virtual, error) {
	clk := clock.NewVirtual(t0)
	topo := tree.FigureTwo(hostsPerCluster)
	inst, err := tree.Build(topo, tree.BuildConfig{
		Mode:        mode,
		Archive:     true,
		ArchiveSpec: experimentArchive(),
		Clock:       clk,
	})
	if err != nil {
		return nil, nil, err
	}
	return inst, clk, nil
}

// designWindow is one design's measurement over a window of polling
// rounds.
type designWindow struct {
	// total is each node's work summed over the window.
	total map[string]gmetad.Snapshot
	// cpu is each node's median %CPU of one round.
	cpu map[string]float64
	// aggregate is the median over rounds of the %CPU summed over all
	// nodes.
	aggregate float64
}

// runDesigns stands up the fig-2 tree once per design, with
// hostsPerCluster hosts per cluster, and advances both trees through
// warmup and then rounds polling rounds of interval each, alternating
// between the designs round by round. Work is wall-clock accounting,
// so a scheduler stall or GC pause inflates whichever round it lands
// in: interleaving puts both designs under the same machine conditions,
// and the per-round medians drop the rounds that were hit.
func runDesigns(hostsPerCluster, rounds, warmup int, interval time.Duration) (map[gmetad.Mode]*designWindow, error) {
	modes := []gmetad.Mode{gmetad.OneLevel, gmetad.NLevel}
	insts := make([]*tree.Instance, len(modes))
	clks := make([]*clock.Virtual, len(modes))
	for i, mode := range modes {
		inst, clk, err := buildInstance(mode, hostsPerCluster)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", mode, err)
		}
		defer inst.Close()
		insts[i], clks[i] = inst, clk
	}
	snapshots := func(inst *tree.Instance) map[string]gmetad.Snapshot {
		out := make(map[string]gmetad.Snapshot, len(inst.Gmetads))
		for name, g := range inst.Gmetads {
			out[name] = g.Accounting().Snapshot()
		}
		return out
	}
	for r := 0; r < warmup; r++ {
		for i, inst := range insts {
			inst.PollRound(clks[i].Advance(interval))
		}
	}
	// Collect the warm-up's garbage, so a GC pause it triggers is not
	// charged to the measured window.
	runtime.GC()
	start := make([]map[string]gmetad.Snapshot, len(modes))
	cpu := make([]map[string][]float64, len(modes))
	agg := make([][]float64, len(modes))
	for i, inst := range insts {
		start[i], cpu[i] = snapshots(inst), make(map[string][]float64)
	}
	for r := 0; r < rounds; r++ {
		for k := range insts {
			i := k
			if r%2 == 1 { // alternate which design goes first
				i = len(insts) - 1 - k
			}
			before := snapshots(insts[i])
			insts[i].PollRound(clks[i].Advance(interval))
			sum := 0.0
			for name, snap := range snapshots(insts[i]) {
				pct := snap.Sub(before[name]).CPUPercent(interval)
				cpu[i][name] = append(cpu[i][name], pct)
				sum += pct
			}
			agg[i] = append(agg[i], sum)
		}
	}
	out := make(map[gmetad.Mode]*designWindow, len(modes))
	for i, mode := range modes {
		w := &designWindow{
			total:     snapshots(insts[i]),
			cpu:       make(map[string]float64),
			aggregate: median(agg[i]),
		}
		for name, snap := range w.total {
			w.total[name] = snap.Sub(start[i][name])
			w.cpu[name] = median(cpu[i][name])
		}
		out[mode] = w
	}
	return out, nil
}

// median returns the median of xs (the mean of the middle two for an
// even count), 0 for none; xs is reordered.
func median[T ~int64 | ~float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// formatTable renders rows of columns with aligned widths.
func formatTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	all := append([][]string{header}, rows...)
	for _, r := range all {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(r []string) {
		for i, c := range r {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	for i := range header {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", width[i]))
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}
