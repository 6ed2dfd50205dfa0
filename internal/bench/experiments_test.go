package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"slices"
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
// span or a `go run ./cmd/bench2b ... <id>` line, which ends at a
// backtick when it is inline too — is in the table, or is an address
// Select resolves.
func TestDocsNameRegisteredExperiments(t *testing.T) {
	ids := map[string]bool{"all": true, "digest": true}
	for _, ex := range Experiments() {
		ids[ex.ID] = true
	}
	inline := regexp.MustCompile("`bench2b\\s([^`]*)`")
	cmdline := regexp.MustCompile("go run \\./cmd/bench2b ([^#&\n`]*)")
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
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
					if _, err := Select(Experiments(), word); err != nil || !strings.Contains(word, "/") {
						t.Errorf("%s: %q names %q, not a registered experiment or an address", doc, m[0], word)
					}
				}
				prev = word
			}
		}
	}
}

// TestDocsHeadingReferencesResolve is the docs lint for cross-document
// references: every EXPERIMENTS.md "<heading>" a document cites, with
// or without a comma and wrapped or not, is the start of one of
// EXPERIMENTS.md's headings. CHANGES.md is history and is not read.
func TestDocsHeadingReferencesResolve(t *testing.T) {
	text, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var headings []string
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "#") {
			headings = append(headings, strings.TrimSpace(strings.TrimLeft(line, "#")))
		}
	}
	ref := regexp.MustCompile(`EXPERIMENTS\.md,?\s+"([^"]+)"`)
	for _, doc := range []string{"README.md", "DESIGN.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllStringSubmatch(string(text), -1) {
			cited := strings.Join(strings.Fields(m[1]), " ")
			if !slices.ContainsFunc(headings, func(h string) bool { return strings.HasPrefix(h, cited) }) {
				t.Errorf("%s: %q names no heading of EXPERIMENTS.md", doc, cited)
			}
		}
	}
}

var update = flag.Bool("update", false, "rerun the artifacts EXPERIMENTS.md shows, at quick scale, and rewrite their blocks")

// block is one artifact's output in EXPERIMENTS.md: a marker naming the
// experiment, then its quick-scale stdout, byte for byte, fenced.
var block = regexp.MustCompile("(?m)^<!-- bench2b ([a-z0-9-]+) -->\n```text\n([^`]*)```\n")

// TestExperimentsShowGoldenOutput checks the output EXPERIMENTS.md
// shows against GOLDEN.json, which CI's digest step recomputes from
// the artifacts themselves: the blocks of the "all" ids, joined in
// registry order, are `bench2b all`'s stdout, and each campaign's block
// is its own. It runs nothing unless -update asks it to rerun them
// and rewrite the blocks:
//
//	go test ./internal/bench -run TestExperimentsShowGoldenOutput -update
func TestExperimentsShowGoldenOutput(t *testing.T) {
	const doc = "../../EXPERIMENTS.md"
	text, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]map[string]string{}
	if raw, err := os.ReadFile("../../GOLDEN.json"); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	// A block for every "all" id, and for each named artifact GOLDEN.json
	// pins but the smokes.
	shown := map[string]Experiment{}
	var allIDs []string
	for _, ex := range Experiments() {
		if ex.InAll {
			allIDs = append(allIDs, ex.ID)
		} else if golden[ex.ID] == nil || strings.HasSuffix(ex.ID, "-smoke") {
			continue
		}
		shown[ex.ID] = ex
	}
	if *update {
		text = block.ReplaceAllFunc(text, func(b []byte) []byte {
			ex, ok := shown[string(block.FindSubmatch(b)[1])]
			if !ok {
				return b
			}
			var out bytes.Buffer
			if res, err := Run(Config{Experiments: []Experiment{ex}, Jobs: runtime.NumCPU()}, &out); err != nil || res.Failures > 0 {
				t.Errorf("%s failed (%v):\n%s", ex.ID, err, out.String())
			}
			return []byte(fmt.Sprintf("<!-- bench2b %s -->\n```text\n%s```\n", ex.ID, out.Bytes()))
		})
		if err := os.WriteFile(doc, text, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	blocks := map[string][]byte{}
	for _, m := range block.FindAllSubmatch(text, -1) {
		id := string(m[1])
		if _, ok := shown[id]; !ok || blocks[id] != nil {
			t.Errorf("EXPERIMENTS.md: block %q is unknown or doubled", id)
		}
		blocks[id] = m[2]
	}
	if n, want := bytes.Count(text, []byte("<!-- bench2b ")), len(block.FindAll(text, -1)); n != want {
		t.Errorf("EXPERIMENTS.md: %d block markers, %d well-formed blocks (a fence, or a backtick inside one, is off)", n, want)
	}
	sum := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
	check := func(id string, out []byte) {
		if got := sum(out); got != golden[id]["stdout"] {
			t.Errorf("EXPERIMENTS.md: the output shown for %s hashes to %s, GOLDEN.json %s.stdout is %s; "+
				"rerun with -update once GOLDEN.json is right", id, got, id, golden[id]["stdout"])
		}
	}
	var all []byte
	for _, id := range allIDs {
		if blocks[id] == nil {
			t.Errorf("EXPERIMENTS.md: no block for %s", id)
		}
		all = append(all, blocks[id]...)
	}
	check("all", all)
	for id, ex := range shown {
		if !ex.InAll {
			if blocks[id] == nil {
				t.Errorf("EXPERIMENTS.md: no block for %s", id)
			}
			check(id, blocks[id])
		}
	}
}
