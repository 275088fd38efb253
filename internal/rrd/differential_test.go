package rrd

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

// script hands out the fuzzer's bytes one decision at a time; an
// exhausted script reads as zeros.
type script []byte

func (s *script) next() int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b)
}

// pick returns one of the choices.
func pick[T any](s *script, choices ...T) T { return choices[s.next()%len(choices)] }

// fuzzSpec builds a small spec: a whole-second step, among them 7 s,
// which does not divide the seconds between year 1 and 1970, so the
// step grid's origin matters; tiny row counts, so the rings wrap.
func fuzzSpec(s *script) Spec {
	step := time.Duration(pick(s, 1, 5, 7, 15, 60)) * time.Second
	spec := Spec{
		Step: step,
		Type: pick(s, Gauge, Counter),
	}
	switch s.next() % 4 {
	case 1:
		spec.Heartbeat = step * time.Duration(1+s.next()%5)
	case 2: // whole seconds plus a fraction: compared by its whole seconds
		spec.Heartbeat = step*time.Duration(1+s.next()%3) + 500*time.Millisecond
	case 3:
		spec.Heartbeat = step + time.Duration(s.next()%90)*time.Second
	}
	for n := 1 + s.next()%4; n > 0; n-- {
		spec.Archives = append(spec.Archives, ArchiveSpec{
			Step: step * time.Duration(1+s.next()%4),
			Rows: 1 + s.next()%6,
			CF:   CF(s.next() % 4),
			XFF:  pick(s, 0, 0.25, 0.5, 1),
		})
	}
	return spec
}

var fuzzZone = time.FixedZone("X", -7*3600-1800)

// fuzzValue returns a sample value: small integers (counters grow or
// reset through them), fractions, NaN.
func fuzzValue(s *script) float64 {
	switch b := s.next(); {
	case b < 16:
		return math.NaN()
	case b < 200:
		return float64(b) * 10
	default:
		return float64(b) / 7
	}
}

// fuzzWindow returns a fetch window near the database's newest update:
// whole or fractional seconds, zero edges, inverted windows.
func fuzzWindow(s *script, now time.Time, step time.Duration) (start, end time.Time) {
	edge := func() time.Time {
		switch s.next() % 6 {
		case 0:
			return time.Time{}
		case 1:
			return now.Add(-time.Duration(s.next()) * step)
		case 2:
			return now.Add(-time.Duration(s.next())*step + time.Duration(s.next())*7*time.Millisecond)
		case 3:
			return now.Add(time.Duration(s.next()-128) * time.Second)
		case 4:
			return now.Add(-time.Duration(s.next()*s.next()) * step)
		}
		return now
	}
	return edge(), edge()
}

// FuzzDatabaseDifferential checks the integer-time Database against the
// time.Time engine it replaced (rrd_oracle_test.go). Each input is a
// script: a spec, then updates (irregular and sub-second times, gaps
// past the heartbeat, NaN, equal and earlier times, UTC, Local and a
// fixed zone) mixed with fetches (zero and inverted windows, steps
// coarser than the retention) and restores from the oracle's snapshot.
// After every step both must agree exactly: errors and their text,
// Last, the known flag, every fetch's points (times compared as values,
// location included), and the gob bytes of the snapshot.
func FuzzDatabaseDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x02\x00\x00\x02\x00\x03\x01\x02\x01\x03\x00\x05\x02\x00\x01\x01\x00\x01\x04"))
	f.Add(bytes.Repeat([]byte{0, 1, 40, 7}, 60))
	f.Add(bytes.Repeat([]byte{2, 0, 3, 1, 1, 2, 3, 200, 5, 6, 7, 9, 1, 4, 3, 8, 250, 17}, 30))
	f.Add(bytes.Repeat([]byte{3, 4, 2, 1, 5, 0, 3, 2, 1, 0, 9, 2, 2, 6, 0, 4, 1, 3, 1}, 40))
	f.Fuzz(fuzzOne)
}

func fuzzOne(t *testing.T, data []byte) {
	{
		s := script(data)
		spec := fuzzSpec(&s)
		want, werr := newOracle(spec)
		got, gerr := New(spec)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("New(%+v): %v, oracle %v", spec, gerr, werr)
		}
		if werr != nil {
			return
		}
		base := pick(&s, time.Unix(1_057_000_000, 0), time.Unix(-300_000_123, 0), time.Unix(0, 0))
		now := base.Add(time.Duration(s.next()) * time.Second)
		for step := 0; len(s) > 0 && step < 64; step++ {
			what := ""
			switch op := s.next() % 10; {
			case op < 6:
				switch s.next() % 8 {
				case 0: // the same instant again
				case 1:
					now = now.Add(-time.Duration(1+s.next()) * time.Second)
				case 2:
					now = now.Add(time.Duration(s.next()) * 13 * time.Millisecond)
				case 3: // silence far beyond the heartbeat
					now = now.Add(time.Duration(5+s.next()) * spec.Step)
				default:
					now = now.Add(time.Duration(s.next()%40)*time.Second + time.Duration(s.next())*time.Millisecond)
				}
				at := now.In(pick(&s, time.UTC, time.Local, fuzzZone))
				v := fuzzValue(&s)
				what = fmt.Sprintf("Update(%v, %v)", at, v)
				werr, gerr := want.Update(at, v), got.Update(at, v)
				if fmt.Sprint(werr) != fmt.Sprint(gerr) || errors.Is(werr, ErrPastUpdate) != errors.Is(gerr, ErrPastUpdate) {
					t.Fatalf("%s: error %v, oracle %v", what, gerr, werr)
				}
			case op == 6:
				cf := CF(s.next() % 4)
				start, end := fuzzWindow(&s, now, spec.Step)
				what = fmt.Sprintf("Fetch(%v, %v, %v)", cf, start, end)
				samePoints(t, what, got.Fetch(cf, start, end), want.Fetch(cf, start, end))
			case op == 7:
				cf := CF(s.next() % 4)
				start, end := fuzzWindow(&s, now, spec.Step)
				qstep := time.Duration(pick(&s, 0, -15, 1, 7, 15, 60, 131400, 1_000_000)) * time.Second
				what = fmt.Sprintf("FetchRange(%v, %v, %v, %v)", cf, start, end, qstep)
				samePoints(t, what, got.FetchRange(cf, start, end, qstep), want.FetchRange(cf, start, end, qstep))
			case op == 8:
				cf := CF(s.next() % 4)
				what = fmt.Sprintf("FetchRecent(%v)", cf)
				samePoints(t, what, got.FetchRecent(cf), want.FetchRecent(cf))
			default: // continue from a checkpoint of the oracle's state
				what = "restore"
				var err error
				if got, err = restore(want.snapshot()); err != nil {
					t.Fatalf("restore: %v", err)
				}
			}
			sameState(t, what, got, want)
		}
	}
}

// sameState compares everything a database exposes besides ranged
// fetches.
func sameState(t *testing.T, after string, got *Database, want *oracleDB) {
	t.Helper()
	if g, w := got.Last(), want.Last(); g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
		t.Fatalf("after %s: Last %v, oracle %v", after, g, w)
	}
	if got.known != want.known || got.Updates() != want.Updates() || got.MemoryRows() != want.MemoryRows() {
		t.Fatalf("after %s: known/updates/rows %v/%d/%d, oracle %v/%d/%d", after,
			got.known, got.Updates(), got.MemoryRows(), want.known, want.Updates(), want.MemoryRows())
	}
	for cf := Average; cf <= Last; cf++ {
		samePoints(t, after+", FetchRecent", got.FetchRecent(cf), want.FetchRecent(cf))
		samePoints(t, after+", FetchRange(zero, zero, 0)",
			got.FetchRange(cf, time.Time{}, time.Time{}, 0), want.FetchRange(cf, time.Time{}, time.Time{}, 0))
	}
	var g, w bytes.Buffer
	if err := gob.NewEncoder(&g).Encode(got.snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&w).Encode(want.snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("after %s: snapshot bytes differ\n got %+v\nwant %+v", after, got.snapshot(), want.snapshot())
	}
}

// samePoints requires identical answers: nil against nil, times equal
// as values (instant and location), values equal or both NaN.
func samePoints(t *testing.T, what string, got, want []Point) {
	t.Helper()
	ok := (got == nil) == (want == nil) && len(got) == len(want)
	for i := 0; ok && i < len(got); i++ {
		g, w := got[i], want[i]
		ok = g.Time == w.Time && (g.Value == w.Value || math.IsNaN(g.Value) && math.IsNaN(w.Value))
	}
	if !ok {
		t.Fatalf("%s:\n got %v\nwant %v", what, got, want)
	}
}
