package bench

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentsTable pins the registry: unique ids, "all" selecting
// exactly the paper artifacts in print order, and the eight
// reliability artifacts selectable by name only.
func TestExperimentsTable(t *testing.T) {
	var all, named []string
	seen := map[string]bool{}
	for _, ex := range Experiments() {
		if seen[ex.ID] || ex.ID == "all" || ex.Run == nil {
			t.Errorf("bad registry entry %q (duplicate, reserved or no Run)", ex.ID)
		}
		seen[ex.ID] = true
		if ex.InAll {
			all = append(all, ex.ID)
		} else {
			named = append(named, ex.ID)
		}
	}
	const wantAll = "tab1 fig7a fig7b fig8a fig8b fig9 fig10 commit waf mixed recovery tail smallread pmr journal qd probe ablations"
	if got := strings.Join(all, " "); got != wantAll {
		t.Errorf("\"all\" selects\n  %s\nwant\n  %s", got, wantAll)
	}
	const wantNamed = "crash crash-smoke fuzz fuzz-smoke fleet fleet-smoke wal-life wal-life-smoke"
	if got := strings.Join(named, " "); got != wantNamed {
		t.Errorf("named-only experiments\n  %s\nwant\n  %s", got, wantNamed)
	}
}

// TestDocsNameRegisteredExperiments is the docs lint: every experiment
// a document tells the reader to run — an inline `bench2b ... <id>`
// span or a `go run ./cmd/bench2b ... <id>` line — is in the table.
func TestDocsNameRegisteredExperiments(t *testing.T) {
	ids := map[string]bool{"all": true}
	for _, ex := range Experiments() {
		ids[ex.ID] = true
	}
	inline := regexp.MustCompile("`bench2b\\s([^`]*)`")
	cmdline := regexp.MustCompile(`go run \./cmd/bench2b ([^#&\n]*)`)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		text, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		mentions := append(inline.FindAllSubmatch(text, -1), cmdline.FindAllSubmatch(text, -1)...)
		if len(mentions) == 0 {
			t.Errorf("%s: no bench2b invocation found; lint pattern stale?", doc)
		}
		for _, m := range mentions {
			// Flags other than the boolean -full take the next word.
			prev := ""
			for _, word := range strings.Fields(string(m[1])) {
				isValue := strings.HasPrefix(prev, "-") && prev != "-full"
				if !strings.HasPrefix(word, "-") && !isValue && !ids[word] {
					t.Errorf("%s: %q names %q, not a registered experiment", doc, m[0], word)
				}
				prev = word
			}
		}
	}
}
