package experiments

import (
	"strings"
	"testing"

	"darkcrowd/internal/core/geoloc"
	"darkcrowd/internal/synth"
)

// TestAllExperimentsReproduce runs every table, figure and ablation at the
// paper's forum scale and asserts the paper's qualitative shape holds.
// This is the repository's headline integration test.
func TestAllExperimentsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	lab := NewLab(Config{TwitterScale: 40, ForumScale: 1})
	for _, id := range AllIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := lab.Run(id)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !res.Pass {
				t.Errorf("shape check failed.\n  paper:    %s\n  measured: %s\n%s",
					res.Paper, res.Measured, strings.Join(res.Lines, "\n"))
			}
			if res.Title == "" || res.Measured == "" || len(res.Lines) == 0 {
				t.Error("incomplete result rendering")
			}
			if res.ID != id {
				t.Errorf("result ID %q, want %q", res.ID, id)
			}
			if strings.HasPrefix(id, "fig") && len(res.Charts) == 0 {
				t.Errorf("figure experiment %s attaches no charts", id)
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	lab := NewLab(Config{})
	if _, err := lab.Run("fig99"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestAllIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range AllIDs() {
		if seen[id] {
			t.Errorf("duplicate experiment id %q", id)
		}
		seen[id] = true
	}
	if len(seen) != 26 {
		t.Errorf("%d experiments, want 26 (17 paper artefacts + 3 discussion + 5 ablations + crawl-faults)", len(seen))
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Seed != 2018 || cfg.TwitterScale != 20 || cfg.ForumScale != 1 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestLabCaching(t *testing.T) {
	lab := NewLab(Config{TwitterScale: 200})
	a, err := lab.Twitter()
	if err != nil {
		t.Fatal(err)
	}
	b, err := lab.Twitter()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Twitter dataset rebuilt instead of cached")
	}
	g1, err := lab.Generic()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := lab.Generic()
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("generic profile rebuilt instead of cached")
	}
}

func TestExpectationClustering(t *testing.T) {
	// CRD Club's +3/+4 mix clusters into one expected component; the Pedo
	// Support mix stays three.
	crd, err := expectationFor(mustSpec(t, "CRD Club"))
	if err != nil {
		t.Fatal(err)
	}
	if len(crd.centers) != 1 {
		t.Errorf("CRD clusters = %v, want 1", crd.centers)
	}
	if crd.centers[0] < 3 || crd.centers[0] > 4 {
		t.Errorf("CRD cluster center %v, want within 3..4", crd.centers[0])
	}
	pedo, err := expectationFor(mustSpec(t, "Pedo Support Community"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pedo.centers) != 3 {
		t.Errorf("Pedo clusters = %v, want 3", pedo.centers)
	}
}

func TestBarChartRendering(t *testing.T) {
	lines := barChart([]string{"a", "b"}, []float64{1, 2}, 10)
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.Contains(lines[1], "##########") {
		t.Errorf("max bar not full width: %q", lines[1])
	}
	if strings.Count(lines[0], "#") != 5 {
		t.Errorf("half bar wrong: %q", lines[0])
	}
	// All-zero series renders without bars.
	zero := barChart([]string{"x"}, []float64{0}, 10)
	if strings.Contains(zero[0], "#") {
		t.Errorf("zero series rendered bars: %q", zero[0])
	}
}

func TestHasComponentNear(t *testing.T) {
	if hasComponentNear(nil, 3, 1) {
		t.Error("empty components should not match")
	}
	comps := []geoloc.Component{{Offset: -11.5}}
	if !hasComponentNear(comps, 12, 1) {
		t.Error("wraparound proximity missed: -11.5 and +12 are 0.5 apart")
	}
	if hasComponentNear(comps, 0, 1) {
		t.Error("distant component matched")
	}
}

func mustSpec(t *testing.T, name string) synth.ForumSpec {
	t.Helper()
	spec, err := synth.ForumSpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestHemisphereLinesDeterministic: the Pedo Support top-user lines come
// out in MostActiveUsers order, so two runs print the same lines.
func TestHemisphereLinesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("forum crawl skipped in -short mode")
	}
	lab := NewLab(Config{ForumScale: 4})
	first, err := lab.Hemisphere()
	if err != nil {
		t.Fatal(err)
	}
	second, err := lab.Hemisphere()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(second.Lines, "\n"), strings.Join(first.Lines, "\n"); got != want {
		t.Fatalf("second run's lines differ:\n%s\nwant:\n%s", got, want)
	}
	fr, err := lab.runForum("Pedo Support Community")
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, line := range first.Lines {
		if rest, ok := strings.CutPrefix(line, "  pedo top user "); ok {
			order = append(order, rest[:strings.IndexByte(rest, ':')])
		}
	}
	if want := geoloc.MostActiveUsers(fr.scraped, 5); strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("pedo top users printed as %v, want MostActiveUsers order %v", order, want)
	}
}
