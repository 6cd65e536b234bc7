package exp

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestExperimentsQuotesGolden holds EXPERIMENTS.md's Figure 1, 7 and 8
// tables to the rows of testdata/figures.golden, which TestFiguresGolden
// holds to the program. Each table sits between the marker comments
// <!-- figures.golden figN --> and <!-- /figures.golden figN --> (blank
// lines around it, so Markdown ends the table before the closing marker);
// the test renders the table from the golden and fails if the marked text
// differs, printing the table to paste.
func TestExperimentsQuotesGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := goldenSections(string(golden))
	for _, tc := range []struct {
		name   string
		render func(map[string][][]string) (string, error)
	}{{"fig1", renderFig1}, {"fig7", renderFig7}, {"fig8", renderFig8}} {
		want, err := tc.render(sections)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		open, end := "<!-- figures.golden "+tc.name+" -->", "<!-- /figures.golden "+tc.name+" -->"
		i := strings.Index(string(doc), open)
		j := strings.Index(string(doc), end)
		if i < 0 || j < i {
			t.Errorf("%s: EXPERIMENTS.md has no %q ... %q markers", tc.name, open, end)
			continue
		}
		if got := strings.TrimSpace(string(doc[i+len(open) : j])); got != strings.TrimSpace(want) {
			t.Errorf("%s: EXPERIMENTS.md's table differs from figures.golden's rows:\n got:\n%s\nwant:\n%s", tc.name, got, want)
		}
	}
}

// goldenSections splits the figure text into its blank-line-separated
// sections, keyed by the title up to its colon, each line split into
// fields. The title and column-header lines are dropped.
func goldenSections(text string) map[string][][]string {
	out := map[string][][]string{}
	for _, sec := range strings.Split(strings.TrimSpace(text), "\n\n") {
		lines := strings.Split(sec, "\n")
		title, _, _ := strings.Cut(lines[0], ":")
		var rows [][]string
		for _, l := range lines[1:] {
			if f := strings.Fields(l); len(f) > 0 && f[0] != "benchmark" {
				rows = append(rows, f)
			}
		}
		out[title] = rows
	}
	return out
}

// commPct returns each benchmark's comm% column of one Figure 1 section,
// in row order, with the average last.
func commPct(rows [][]string) (names, pct []string) {
	for _, r := range rows {
		names = append(names, r[0])
		pct = append(pct, r[len(r)-1])
	}
	return names, pct
}

func renderFig1(s map[string][][]string) (string, error) {
	names, g := commPct(s["Figure 1 (GREMIO)"])
	dnames, d := commPct(s["Figure 1 (DSWP)"])
	if len(names) == 0 || strings.Join(names, " ") != strings.Join(dnames, " ") {
		return "", fmt.Errorf("figures.golden's two Figure 1 sections list %v and %v", names, dnames)
	}
	var b strings.Builder
	b.WriteString("| benchmark | GREMIO | DSWP |\n|---|---|---|\n")
	for i, n := range names {
		if n == "average" {
			fmt.Fprintf(&b, "| **average** | **%s** | **%s** |\n", g[i], d[i])
			continue
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", n, g[i], d[i])
	}
	return b.String(), nil
}

func renderFig7(s map[string][][]string) (string, error) {
	rows := s["Figure 7"]
	if len(rows) == 0 {
		return "", fmt.Errorf("figures.golden has no Figure 7 section")
	}
	var b strings.Builder
	b.WriteString("| benchmark | GREMIO | DSWP | mem syncs removed (GREMIO) |\n|---|---|---|---|\n")
	for _, r := range rows {
		if len(r) < 4 {
			return "", fmt.Errorf("Figure 7 row %q has %d fields", strings.Join(r, " "), len(r))
		}
		if r[0] == "average" {
			fmt.Fprintf(&b, "| **average** | **%s** | **%s** | |\n", r[1], r[2])
			continue
		}
		syncs := strings.TrimSuffix(strings.Join(r[3:], " "), " (GREMIO)")
		if syncs == "-" {
			syncs = "—"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", r[0], r[1], r[2], syncs)
	}
	return b.String(), nil
}

func renderFig8(s map[string][][]string) (string, error) {
	type cells struct{ mtcg, coco [2]string }
	var order []string
	byName := map[string]*cells{}
	var gain [2]string
	for _, r := range s["Figure 8"] {
		if len(r) < 5 || strings.HasPrefix(r[0], "(") {
			continue // the paper's note
		}
		col := 0
		if r[1] == "DSWP" {
			col = 1
		}
		if r[0] == "average" {
			gain[col] = r[len(r)-1]
			continue
		}
		c := byName[r[0]]
		if c == nil {
			c = &cells{}
			byName[r[0]] = c
			order = append(order, r[0])
		}
		c.mtcg[col] = strings.Replace(r[2], "x", "×", 1)
		c.coco[col] = strings.Replace(r[3], "x", "×", 1)
	}
	if len(order) == 0 {
		return "", fmt.Errorf("figures.golden has no Figure 8 rows")
	}
	var b strings.Builder
	b.WriteString("| benchmark | GREMIO MTCG | GREMIO +COCO | DSWP MTCG | DSWP +COCO |\n|---|---|---|---|---|\n")
	for _, n := range order {
		c := byName[n]
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n", n, c.mtcg[0], c.coco[0], c.mtcg[1], c.coco[1])
	}
	fmt.Fprintf(&b, "| **mean COCO gain** | | **%s** | | **%s** |\n", gain[0], gain[1])
	return b.String(), nil
}
