package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs each workload for a few seconds and
// requires every output check to have run and passed.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up the whole tree")
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			o := wl.opts
			o.seed = 7
			o.cap = newCaptures(false)
			tr, err := newTree(o)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.close()
			log, err := newAnswerLog(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer log.close()
			w := runTree(tr, time.Second, rand.New(rand.NewSource(o.seed)), log)
			finalChecks(tr, wl, w)
			if w.failed != 0 {
				t.Fatalf("%d of %d failed: %v", w.failed, w.attempted, w.errs)
			}
			if w.rounds == 0 || len(w.fresh) != w.rounds {
				t.Errorf("%d rounds, %d fresh markers", w.rounds, len(w.fresh))
			}
			if w.cpu <= 0 || w.wire <= 0 {
				t.Errorf("cpu %v, wire %d", w.cpu, w.wire)
			}
			for _, v := range views {
				if len(w.q[v.name]) == 0 {
					t.Errorf("no %s queries", v.name)
				}
			}
			if w.checked == 0 {
				t.Error("no answer was checked")
			}
			if wl.opts.subscribe && w.acct1.StreamFrames == w.acct0.StreamFrames {
				t.Error("no stream frames in the window")
			}
			checksRejectBadAnswers(t, tr)
		})
	}
}

// checksRejectBadAnswers mutates real answers and requires the answer
// check to refuse each mutation.
func checksRejectBadAnswers(t *testing.T, tr *benchTree) {
	rng := rand.New(rand.NewSource(1))
	for _, v := range views {
		r := tr.draw(v, rng.Int(), rng.Int())
		var buf bytes.Buffer
		if _, err := ask(tr.rootNode().addr, r.line, &buf); err != nil {
			t.Fatal(err)
		}
		good := buf.Bytes()
		if err := check(r, good, tr.hostCount()); err != nil {
			t.Fatalf("a real %s answer fails its check: %v", v.name, err)
		}
		bad := map[string][]byte{
			"error comment": append(append([]byte(nil), good...), "<!-- ERROR busy -->\n"...),
			"truncated":     good[:len(good)*2/3],
		}
		if v.history {
			i := bytes.Index(good, []byte("<POINT "))
			j := i + bytes.IndexByte(good[i:], '\n') + 1
			bad["missing point"] = append(append([]byte(nil), good[:i]...), good[j:]...)
		}
		if v.name == "summary" {
			bad["wrong host count"] = bytes.Replace(good, []byte(`UP="`), []byte(`UP="1`), 1)
		}
		for what, b := range bad {
			if err := check(r, b, tr.hostCount()); err == nil {
				t.Errorf("%s answer with %s passed its check", v.name, what)
			}
		}
	}
}

// TestTracedRunReportsEveryLayer runs the traced measurement end to end
// through the command's entry point.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up the whole tree")
	}
	var out bytes.Buffer
	dir := t.TempDir()
	code := run([]string{"-workload", "stream-tree", "-seed", "3", "-seconds", "1", "-trace", "1", "-out", dir}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("result %+v", res)
	}
	if len(res.Metrics) != len(layerDefs) {
		t.Errorf("%d metrics, want the %d per-layer ones", len(res.Metrics), len(layerDefs))
	}
	for _, d := range layerDefs {
		if m, ok := res.Metrics[d.name]; !ok || m["unit"] != d.unit {
			t.Errorf("metric %s: %v", d.name, m)
		}
	}
	for _, name := range []string{"stream.apply_us", "stream.frames_per_round", "gmetad.pollonce_ms.root", "path.round.wait_ms"} {
		if v, _ := res.Metrics[name]["value"].(float64); v <= 0 {
			t.Errorf("%s = %v on stream-tree", name, v)
		}
	}
	spans, err := os.ReadFile(dir + "/trace/spans-stream-tree-seed3.jsonl")
	if err != nil || bytes.Count(spans, []byte("\n")) < 10 {
		t.Errorf("span file: %d bytes, %v", len(spans), err)
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "poll-tree", "-trace", "2"},
		{"-workload", "poll-tree", "-seconds", "0"},
	} {
		var out bytes.Buffer
		if code := run(args, &out); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}

// TestBenchmarkFileMatches holds BENCHMARK.json to the metrics and
// workloads the command reports.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("%d workloads in the file, %d in the command", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	same := func(what string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: %d in the file, %d in the command", what, len(file), len(defs))
		}
		for i := range file {
			if i < len(defs) && (file[i].Name != defs[i].name || file[i].Unit != defs[i].unit) {
				t.Errorf("%s %d: %v vs %v", what, i, file[i], defs[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, e2eDefs)
	same("per_layer", bf.PerLayer, layerDefs)
}
