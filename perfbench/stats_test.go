package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) sample {
	s := make(sample, n)
	for i := range s {
		s[i] = float64(n - i) // unsorted on purpose
	}
	return s
}

func TestQuantileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{100, 0.5, 50, 50},
		{100, 0.9, 90, 10},
		{99, 0.9, 90, 9},
		{1000, 0.99, 990, 10},
		{999, 0.99, 990, 9},
		{1, 0.5, 1, 0},
		{10, 1, 10, 0},
	} {
		v, beyond := seq(c.n).quantile(c.p)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("n=%d p=%g: got %g with %d beyond, want %g with %d", c.n, c.p, v, beyond, c.want, c.wantBeyond)
		}
	}
	if v, beyond := (sample{}).quantile(0.5); !math.IsNaN(v) || beyond != 0 {
		t.Errorf("empty sample: got %g, %d", v, beyond)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	if got := needed(0.9); got != 100 {
		t.Errorf("needed(0.9) = %d, want 100", got)
	}
	if got := needed(0.99); got != 1000 {
		t.Errorf("needed(0.99) = %d, want 1000", got)
	}
	if _, err := seq(100).tail(0.9); err != nil {
		t.Errorf("p90 of 100: %v", err)
	}
	_, err := seq(99).tail(0.9)
	if err == nil {
		t.Fatal("p90 of 99 samples was reported")
	}
	// The refusal names the sample count it saw and the count it needs.
	for _, want := range []string{"99 samples", "9 beyond", "need 100"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
	if _, err := seq(999).tail(0.99); err == nil {
		t.Error("p99 of 999 samples was reported")
	}
}

func TestMedianDoesNotReorder(t *testing.T) {
	s := sample{3, 1, 2}
	if m := s.median(); m != 2 {
		t.Errorf("median = %g", m)
	}
	if s[0] != 3 || s[1] != 1 {
		t.Errorf("median sorted its input: %v", s)
	}
}
