// Command benchgen regenerates every table and figure of the paper and
// renders a paper-vs-measured report.
//
// Usage:
//
//	benchgen                     # run everything, text report to stdout
//	benchgen -exp fig13          # run one experiment
//	benchgen -markdown           # emit EXPERIMENTS.md-style markdown
//	benchgen -twitter-scale 10   # larger Twitter stand-in (slower, tighter)
//	benchgen -onion              # scrape forums through the onion network
//
// Performance is measured by the benchmark under bench/ (see
// bench/README.md), not by this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"darkcrowd/internal/experiments"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp          = flag.String("exp", "", "run a single experiment (e.g. table1, fig13); empty = all")
		seed         = flag.Int64("seed", 2018, "seed for all synthetic data")
		twitterScale = flag.Int("twitter-scale", 20, "divide Table I user counts by this factor")
		forumScale   = flag.Int("forum-scale", 1, "divide forum census by this factor (1 = paper scale)")
		useOnion     = flag.Bool("onion", false, "scrape forums through the simulated Tor network")
		markdown     = flag.Bool("markdown", false, "emit markdown (EXPERIMENTS.md format)")
		svgDir       = flag.String("svg", "", "also write each figure as an SVG file into this directory")
		list         = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.AllIDs() {
			fmt.Println(id)
		}
		return 0
	}

	lab := experiments.NewLab(experiments.Config{
		Seed:         *seed,
		TwitterScale: *twitterScale,
		ForumScale:   *forumScale,
		UseOnion:     *useOnion,
	})

	ids := experiments.AllIDs()
	if *exp != "" {
		ids = []string{*exp}
	}

	if *markdown {
		fmt.Println("# EXPERIMENTS — paper vs. measured")
		fmt.Println()
		fmt.Printf("Regenerated with `benchgen -seed %d -twitter-scale %d -forum-scale %d`.\n\n",
			*seed, *twitterScale, *forumScale)
		fmt.Println("| ID | Experiment | Paper reports | Measured | Shape |")
		fmt.Println("|---|---|---|---|---|")
	}

	failures := 0
	var details []string
	for _, id := range ids {
		res, err := lab.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgen: %s: %v\n", id, err)
			return 1
		}
		status := "PASS"
		if !res.Pass {
			status = "FAIL"
			failures++
		}
		if *svgDir != "" {
			if err := writeCharts(*svgDir, res); err != nil {
				fmt.Fprintf(os.Stderr, "benchgen: write SVG for %s: %v\n", res.ID, err)
				return 1
			}
		}
		if *markdown {
			fmt.Printf("| %s | %s | %s | %s | %s |\n",
				res.ID, mdEscape(res.Title), mdEscape(res.Paper), mdEscape(res.Measured), status)
			var b strings.Builder
			fmt.Fprintf(&b, "## %s — %s\n\n", res.ID, res.Title)
			fmt.Fprintf(&b, "- **Paper:** %s\n- **Measured:** %s\n- **Shape check:** %s\n- **Elapsed:** %s\n\n",
				res.Paper, res.Measured, status, res.Elapsed.Round(1e7))
			b.WriteString("```\n")
			for _, line := range res.Lines {
				b.WriteString(line)
				b.WriteByte('\n')
			}
			b.WriteString("```\n")
			details = append(details, b.String())
		} else {
			fmt.Printf("=== %s [%s] (%s)\n", res.ID, status, res.Elapsed.Round(1e7))
			fmt.Printf("    %s\n", res.Title)
			fmt.Printf("    paper:    %s\n", res.Paper)
			fmt.Printf("    measured: %s\n", res.Measured)
			for _, line := range res.Lines {
				fmt.Println(line)
			}
			fmt.Println()
		}
	}
	if *markdown {
		fmt.Println()
		for _, d := range details {
			fmt.Println(d)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchgen: %d experiment(s) failed the shape check\n", failures)
		return 1
	}
	return 0
}

func mdEscape(s string) string {
	return strings.ReplaceAll(s, "|", "\\|")
}

// writeCharts renders a result's figures into dir as SVG files.
func writeCharts(dir string, res *experiments.Result) error {
	if len(res.Charts) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, nc := range res.Charts {
		svg, err := nc.Chart.SVG()
		if err != nil {
			return fmt.Errorf("render %s/%s: %w", res.ID, nc.Name, err)
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%s.svg", res.ID, nc.Name))
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return err
		}
	}
	return nil
}
