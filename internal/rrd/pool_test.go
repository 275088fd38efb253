package rrd

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// hostRound is one poll round's samples for every host of a small
// grid: a summary pseudo-host, a host reporting one metric twice, NaN
// values, and metrics that come and go between rounds.
func hostRound(round int) map[[2]string][]Sample {
	out := map[[2]string][]Sample{}
	for c := 0; c < 2; c++ {
		cluster := "cl" + itoa(c)
		for h := 0; h < 5; h++ {
			var s []Sample
			for m := 0; m < 4+(round+h)%3; m++ {
				v := float64(round*10 + h + m)
				if (round+m)%7 == 0 {
					v = math.NaN()
				}
				s = append(s, Sample{Metric: "m" + itoa(m), Value: v})
			}
			if h == 3 {
				s = append(s, Sample{Metric: "m0", Value: 1}) // reported twice: rejected
			}
			out[[2]string{cluster, "host" + itoa(h)}] = s
		}
		out[[2]string{cluster, "__summary__"}] = []Sample{{"load_one", float64(round)}, {"cpu_num", 8}}
	}
	return out
}

// TestUpdateHostEquivalence feeds one pool through UpdateHost and one
// through UpdateSeries, including coalesced polls within one second and
// polls from the past: their durable state must be byte-identical,
// and every rejection must be counted alike.
func TestUpdateHostEquivalence(t *testing.T) {
	byHost := NewPoolShards(multiCFSpec(), 3)
	bySample := NewPool(multiCFSpec())
	var rejected, errs int
	times := []time.Duration{0, 15 * time.Second, 15*time.Second + 400*time.Millisecond, 31 * time.Second,
		20 * time.Second, 46 * time.Second, 5 * time.Minute, 5*time.Minute + 15*time.Second}
	for round, off := range times {
		now := tAligned.Add(off)
		for key, samples := range hostRound(round) {
			rejected += byHost.UpdateHost(key[0], key[1], now, samples)
			for _, s := range samples {
				if err := bySample.UpdateSeries(key[0], key[1], s.Metric, now, s.Value); err != nil {
					errs++
				}
			}
		}
	}
	if rejected == 0 || rejected != errs {
		t.Errorf("UpdateHost rejected %d samples, UpdateSeries %d; want the same, and some", rejected, errs)
	}
	hu, he := byHost.Stats()
	su, se := bySample.Stats()
	if hu != su || he != se || he != uint64(rejected) {
		t.Errorf("Stats: UpdateHost (%d, %d), UpdateSeries (%d, %d), %d rejected", hu, he, su, se, rejected)
	}
	var a, b bytes.Buffer
	if err := byHost.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := bySample.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("pools fed per host and per sample wrote different snapshots")
	}
	if byHost.InternedNames() != bySample.InternedNames() {
		t.Errorf("InternedNames %d vs %d", byHost.InternedNames(), bySample.InternedNames())
	}
}

// TestUpdateHostAllocs: once a host's series exist, archiving its
// report allocates nothing.
func TestUpdateHostAllocs(t *testing.T) {
	p := NewPool(DefaultSpec())
	samples := make([]Sample, 30)
	for i := range samples {
		samples[i] = Sample{Metric: "metric_" + itoa(i), Value: float64(i)}
	}
	now := t0
	p.UpdateHost("cluster", "compute-0-0", now, samples)
	allocs := testing.AllocsPerRun(100, func() {
		now = now.Add(15 * time.Second)
		if n := p.UpdateHost("cluster", "compute-0-0", now, samples); n != 0 {
			t.Fatalf("%d samples rejected", n)
		}
	})
	if allocs != 0 {
		t.Errorf("UpdateHost on a warm pool: %v allocations per call, want 0", allocs)
	}
}

// BenchmarkArchiveRound archives whole poll rounds at the scale of one
// paper-sized tree: 12 clusters × 100 hosts × 30 metrics (36k series
// under DefaultSpec, about 350 MB), one UpdateHost per host per 15 s
// step, after a warm-up round that creates every series.
func BenchmarkArchiveRound(b *testing.B) {
	const clusters, hosts, metrics = 12, 100, 30
	type host struct{ cluster, name string }
	var all []host
	for c := 0; c < clusters; c++ {
		for h := 0; h < hosts; h++ {
			all = append(all, host{"cluster-" + itoa(c), "compute-" + itoa(c) + "-" + itoa(h)})
		}
	}
	samples := make([]Sample, metrics)
	for i := range samples {
		samples[i] = Sample{Metric: "metric_" + itoa(i), Value: float64(i) / 3}
	}
	p := NewPool(DefaultSpec())
	now := t0
	round := func() {
		now = now.Add(15 * time.Second)
		for _, h := range all {
			p.UpdateHost(h.cluster, h.name, now, samples)
		}
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(all)*metrics), "ns/sample")
}
