package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// declaredMetrics reads the metric names BENCHMARK.json promises.
func declaredMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestWorkloadsSmoke runs every workload, end to end and traced, on
// shrunken inputs for about a second, and checks that every declared
// metric is printed and every check passes.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI and runs every workload")
	}
	endToEnd, perLayer := declaredMetrics(t)
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name, want := w.name, endToEnd
			if traced {
				name, want = w.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				seconds := time.Second
				if w.name == "serve-query" {
					seconds = 3 * time.Second // each rate needs two /report polls
				}
				var log bytes.Buffer
				e := &env{
					seed: 2, seconds: seconds, forumShrink: 8, twitterScale: 64, log: &log,
					spans: filepath.Join(t.TempDir(), "spans.json"),
				}
				res, err := runWorkload(context.Background(), e, root, t.TempDir(), w, traced)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if len(res.failures) > 0 {
					t.Fatalf("checks failed: %v\n%s", res.failures, log.String())
				}
				var got []string
				for _, m := range res.metrics {
					got = append(got, m.name)
					if !strings.Contains(log.String(), w.name+" "+m.name+" ") {
						t.Errorf("metric %s not printed", m.name)
					}
				}
				if !slices.Equal(got, want) {
					t.Errorf("metrics %v, BENCHMARK.json declares %v", got, want)
				}
				var out bytes.Buffer
				if err := writeResult(&out, res); err != nil {
					t.Fatal(err)
				}
				var line struct {
					Correct   bool
					Attempted int
					Metrics   map[string]struct{ Value float64 }
				}
				if err := json.Unmarshal(out.Bytes(), &line); err != nil || !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(want) {
					t.Errorf("result line %s (%v)", out.Bytes(), err)
				}
				if traced {
					if _, err := os.Stat(e.spans); err != nil {
						t.Errorf("no span file: %v", err)
					}
				}
			})
		}
	}
}
