package bench

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"twobssd/internal/fault"
	"twobssd/internal/oracle"
)

// runUnit runs the experiments id selects through Run and returns their
// stdout.
func runUnit(t *testing.T, cfg Config, id string) (string, *Result) {
	t.Helper()
	exps, err := Select(Experiments(), id)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Experiments = exps
	var out bytes.Buffer
	res, err := Run(cfg, &out)
	if err != nil || res.Failures > 0 {
		t.Fatalf("%s: %v\n%s", id, err, out.String())
	}
	return out.String(), res
}

// sweptLines runs row of campaign experiment exp as the full run does
// and returns every point's finding as a point run alone prints it.
func sweptLines(t *testing.T, exp, row string) []string {
	t.Helper()
	for i, c := range campaigns {
		switch {
		case c.name != row:
		case c.fuzz != nil:
			return findingLines(t, exp+"/"+row, oracle.Campaign(*c.fuzz, sweepPoints[exp]))
		default:
			return findingLines(t, exp+"/"+row, campaigns[i].crash(sweepPoints[exp]).Campaign())
		}
	}
	t.Fatalf("no campaign row %q", row)
	return nil
}

func findingLines[C any, R fault.Outcome](t *testing.T, addr string, c *fault.Campaign[C, R]) []string {
	t.Helper()
	rep, err := c.Run(runner(Quick).parallelFor, addr)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(rep.Findings))
	for i := range rep.Findings {
		var b bytes.Buffer
		if err := rep.Findings[i].WriteText(&b); err != nil {
			t.Fatal(err)
		}
		lines[i] = b.String()
	}
	return lines
}

// TestReplaysMatchTheFullRun: an address runs its unit alone and prints
// what the full run prints or records for it, byte for byte. Three
// points of each campaign smoke, drawn with a fixed seed, render as
// their findings in the full sweep; every fleet scenario prints its
// table of the full family; three paper artifacts print their tables
// of the full `all` run.
func TestReplaysMatchTheFullRun(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, exp := range []string{"crash-smoke", "fuzz-smoke"} {
		rows := sweepRows(exp)
		swept := map[string][]string{}
		for k := 0; k < 3; k++ {
			row, i := rows[rng.Intn(len(rows))], rng.Intn(sweepPoints[exp])
			if swept[row] == nil {
				swept[row] = sweptLines(t, exp, row)
			}
			addr := exp + "/" + row + "/" + strconv.Itoa(i)
			got, _ := runUnit(t, Config{Jobs: 2}, addr)
			if want := swept[row][i]; got != want {
				t.Errorf("%s prints\n%s\nthe full sweep found\n%s", addr, got, want)
			}
			if !strings.HasPrefix(got, addr+" seed ") {
				t.Errorf("%s prints %q: its line does not start with its address", addr, got)
			}
		}
	}

	for _, exp := range []string{"fleet", "fleet-smoke"} {
		full, _ := runUnit(t, Config{Jobs: 2}, exp)
		tables := strings.SplitAfter(full, "\n\n")
		scens := fleetOf(exp, Quick)
		if len(tables) != len(scens)+1 || tables[len(scens)] != "" {
			t.Fatalf("%s printed %d blocks for %d scenarios", exp, len(tables)-1, len(scens))
		}
		for i, sc := range scens {
			if got, _ := runUnit(t, Config{Jobs: 2}, exp+"/"+sc.id); got != tables[i] {
				t.Errorf("%s/%s prints\n%s\nthe full run printed\n%s", exp, sc.id, got, tables[i])
			}
		}
	}

	if testing.Short() {
		t.Skip("the paper artifacts' full run; skipped with -short")
	}
	all, _ := runUnit(t, Config{Jobs: 2}, "all")
	var paper []string
	for _, ex := range Experiments() {
		if ex.InAll {
			paper = append(paper, ex.ID)
		}
	}
	for k := 0; k < 3; k++ {
		id := paper[rng.Intn(len(paper))]
		if got, _ := runUnit(t, Config{Jobs: 2}, id); got == "" || !strings.Contains(all, got) {
			t.Errorf("%s alone prints\n%s\nwhich the full run does not", id, got)
		}
	}
}
