// Command gstat queries a gmetad (or gmond) and prints the result.
//
// Usage:
//
//	gstat -addr localhost:8652 [-q /meteor/compute-0-0] [-format table|xml|summary]
//
// With -format xml the raw Ganglia XML is printed. With -format table
// (default) hosts and metrics are rendered as text. With -format
// summary the additive reductions are shown.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"ganglia/internal/gxml"
	"ganglia/internal/summary"
	"ganglia/internal/transport"
	"ganglia/internal/webfront"
)

func main() {
	var (
		addr   = flag.String("addr", "127.0.0.1:8652", "gmetad query port (or gmond XML port with -gmond)")
		q      = flag.String("q", "/", "path query, e.g. /meteor/compute-0-0")
		format = flag.String("format", "table", "output format: table, xml or summary")
		isGmon = flag.Bool("gmond", false, "target is a gmond XML port (no query sent)")
		watch  = flag.Duration("watch", 0, "repeat the query at this interval (0 = once)")
	)
	flag.Parse()

	for {
		if err := runOnce(*addr, *q, *format, *isGmon); err != nil {
			if *watch == 0 {
				log.Fatal(err)
			}
			fmt.Printf("gstat: %v\n", err)
		}
		if *watch == 0 {
			return
		}
		time.Sleep(*watch)
		fmt.Printf("\n--- %s ---\n", time.Now().Format(time.RFC3339))
	}
}

func runOnce(addr, q, format string, isGmon bool) error {
	net := &transport.TCPNetwork{}
	conn, err := net.Dial(addr)
	if err != nil {
		return fmt.Errorf("dial %s: %w", addr, err)
	}
	defer conn.Close()
	if !isGmon {
		if _, err := io.WriteString(conn, q+"\n"); err != nil {
			return fmt.Errorf("send query: %w", err)
		}
	}

	if format == "xml" {
		//lint:allow boundedread streams to stdout, holding no more than one buffer
		if _, err := io.Copy(os.Stdout, bufio.NewReader(conn)); err != nil {
			return fmt.Errorf("read: %w", err)
		}
		return nil
	}
	// The parsed report is held whole, so cap the download as a viewer does.
	rep, err := gxml.Parse(bufio.NewReader(io.LimitReader(conn, webfront.DefaultMaxResponseBytes)))
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	switch format {
	case "table":
		printTable(rep)
	case "summary":
		printSummary(rep)
	default:
		return fmt.Errorf("unknown -format %q", format)
	}
	return nil
}

func printTable(rep *gxml.Report) {
	for _, h := range rep.Histories {
		printHistory(h)
	}
	var clusters []*gxml.Cluster
	clusters = append(clusters, rep.Clusters...)
	var walk func(g *gxml.Grid, depth int)
	walk = func(g *gxml.Grid, depth int) {
		fmt.Printf("%*sGRID %s (authority %s)\n", depth*2, "", g.Name, g.Authority)
		if g.Summary != nil {
			printSummaryBody(g.Summary, depth+1)
		}
		for _, c := range g.Clusters {
			printCluster(c, depth+1)
		}
		for _, child := range g.Grids {
			walk(child, depth+1)
		}
	}
	for _, g := range rep.Grids {
		walk(g, 0)
	}
	for _, c := range clusters {
		printCluster(c, 0)
	}
}

func printCluster(c *gxml.Cluster, depth int) {
	fmt.Printf("%*sCLUSTER %s (%d hosts)\n", depth*2, "", c.Name, len(c.Hosts))
	if c.Summary != nil && len(c.Hosts) == 0 {
		printSummaryBody(c.Summary, depth+1)
		return
	}
	for _, h := range c.Hosts {
		state := "up"
		if !h.Up() {
			state = "DOWN"
		}
		fmt.Printf("%*sHOST %s ip=%s %s tn=%ds\n", (depth+1)*2, "", h.Name, h.IP, state, h.TN)
		for _, m := range h.Metrics {
			fmt.Printf("%*s%-16s %12s %-12s tn=%d\n", (depth+2)*2, "", m.Name, m.Val.Text(), m.Units, m.TN)
		}
	}
}

func printSummaryBody(s *summary.Summary, depth int) {
	fmt.Printf("%*shosts: %d up, %d down\n", depth*2, "", s.HostsUp, s.HostsDown)
	for _, name := range s.Names() {
		m := s.Metrics[name]
		fmt.Printf("%*s%-16s sum=%-14.2f mean=%-10.2f stddev=%-10.2f n=%d\n",
			depth*2, "", name, m.Sum, m.Mean(), m.Stddev(), m.Num)
	}
}

func printHistory(h *gxml.History) {
	fmt.Printf("HISTORY %s/%s/%s cf=%s step=%ds (%d points)\n",
		h.Cluster, h.Host, h.Metric, h.CF, h.Step, len(h.Points))
	for _, p := range h.Points {
		ts := time.Unix(p.Time, 0).UTC().Format(time.RFC3339)
		if p.Unknown() {
			fmt.Printf("  %s  (unknown)\n", ts)
		} else {
			fmt.Printf("  %s  %.4f\n", ts, p.Value)
		}
	}
}

func printSummary(rep *gxml.Report) {
	total := summary.New()
	for _, c := range rep.Clusters {
		total.Merge(c.Summarize())
	}
	for _, g := range rep.Grids {
		total.Merge(g.Summarize())
	}
	printSummaryBody(total, 0)
}
