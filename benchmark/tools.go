package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// checkScale sizes the determinism self-check.
const checkScale = 1.0 / 20

// checkMain runs every workload twice at 1/20 size in this process:
// every sim_* metric and every registry-derived count must be
// bit-identical, and kv-ba and kv-block must have issued the identical
// op stream.
func checkMain(out io.Writer) int {
	bad := 0
	streams := map[string]uint64{}
	for _, w := range workloads {
		o := RunOpts{Seed: 1, Measured: checkScale, Setup: checkScale, SetupReps: 1}
		a, b := w.Run(o), w.Run(o)
		sa, sb := a.simSignature(), b.simSignature()
		switch {
		case !a.Correct() || !b.Correct():
			bad++
			fmt.Fprintf(out, "FAIL %-15s run not correct: %v %v\n", w.Name, a.Problems, b.Problems)
		case sa != sb:
			bad++
			fmt.Fprintf(out, "FAIL %-15s virtual-time results differ between two runs of one seed:\n%s\n", w.Name, diffLines(sa, sb))
		default:
			fmt.Fprintf(out, "ok   %-15s %d ops, %d sim values and counts identical\n", w.Name, a.Attempted, strings.Count(sa, "\n")+1)
		}
		streams[w.Name] = a.StreamHash
	}
	if streams["kv-ba"] != streams["kv-block"] {
		bad++
		fmt.Fprintf(out, "FAIL kv-ba and kv-block issued different op streams: %x vs %x\n", streams["kv-ba"], streams["kv-block"])
	} else {
		fmt.Fprintf(out, "ok   kv-ba and kv-block issued the identical op stream (%x)\n", streams["kv-ba"])
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func diffLines(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	var out []string
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			out = append(out, "  "+la[i]+"  |  "+lb[i])
		}
	}
	return strings.Join(out, "\n")
}

// repeatMain runs full-size workloads n times each, one process per
// run so the peak resident set is per run, and reports the spread of
// every end-to-end metric against its bound.
func repeatMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("repeat", flag.ContinueOnError)
	n := fs.Int("n", 3, "runs per workload")
	seed := fs.Int64("seed", 1, "seed of every run")
	seconds := fs.Float64("seconds", nominalSeconds, "length of the measured phase")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := fs.Args()
	if len(names) == 0 {
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	bad := 0
	for _, name := range names {
		if _, ok := workloadByName(name); !ok {
			usage()
			return 2
		}
		values := map[string][]float64{}
		for i := 0; i < *n; i++ {
			cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d: %v\n", name, i, err)
				return 1
			}
			res, err := lastResult(stdout)
			if err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d: not correct (%v)\n", name, i, err)
				return 1
			}
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		fmt.Fprintf(out, "== %s, %d runs of seed %d ==\n", name, *n, *seed)
		fmt.Fprintf(out, "%-30s %14s %14s %14s %9s %7s\n", "metric", "min", "median", "max", "spread", "bound")
		for _, m := range endToEnd {
			v := values[m.Name]
			lo, hi := v[0], v[0]
			for _, x := range v {
				if x < lo {
					lo = x
				}
				if x > hi {
					hi = x
				}
			}
			spread := 0.0
			if med := median(v); med != 0 {
				spread = (hi - lo) / med
			}
			verdict := ""
			if m.Clock == "sim" && spread != 0 {
				verdict = "  FAIL: virtual time must repeat exactly"
				bad++
			} else if spread > m.Bound {
				verdict = "  FAIL: runs of one commit disagree by more than the bound"
				bad++
			}
			fmt.Fprintf(out, "%-30s %14.6g %14.6g %14.6g %8.2f%% %6.0f%%%s\n", m.Name, lo, median(v), hi, spread*100, m.Bound*100, verdict)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// lastResult parses the last line of a run's standard output.
func lastResult(stdout []byte) (resultLine, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res resultLine
	err := json.Unmarshal(last, &res)
	return res, err
}
