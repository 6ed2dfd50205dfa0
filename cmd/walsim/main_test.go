package main

import (
	"bytes"
	"strings"
	"testing"
)

func drive(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// The default run and every commit mode, on a single log file and on a
// checkpointed ring, commit every record and report each one.
func TestRunModes(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-mode", "sync"}, {"-mode", "async"}, {"-mode", "ba"},
		{"-mode", "sync", "-ring", "4", "-checkpoint-every", "64"},
		{"-mode", "async", "-ring", "4", "-checkpoint-every", "64"},
		{"-mode", "ba", "-ring", "4", "-checkpoint-every", "64"},
	} {
		code, out, errs := drive(args...)
		if code != 0 || errs != "" {
			t.Fatalf("%q: exit %d, stderr %q", args, code, errs)
		}
		if !strings.Contains(out, " clients=4 records=1000 size=128B") || !strings.Contains(out, "persist latency:   n=1000 ") {
			t.Errorf("%q: report does not show 1000 commits:\n%s", args, out)
		}
	}
}

// Records that do not divide among the clients still all commit: the
// first records%clients clients take one more.
func TestRunCommitsExactlyRecords(t *testing.T) {
	for _, tc := range []struct{ records, clients, want string }{
		{"10", "4", "n=10 "}, {"3", "4", "n=3 "}, {"7", "1", "n=7 "},
	} {
		code, out, errs := drive("-records", tc.records, "-clients", tc.clients)
		if code != 0 || errs != "" {
			t.Fatalf("-records %s -clients %s: exit %d, stderr %q", tc.records, tc.clients, code, errs)
		}
		if !strings.Contains(out, "records="+tc.records+" ") || !strings.Contains(out, tc.want) {
			t.Errorf("-records %s -clients %s: want %s commits:\n%s", tc.records, tc.clients, tc.want, out)
		}
	}
}

// A flag out of range, an unknown mode or device, BA mode off the
// 2B-SSD and a stray argument are usage errors: a message, the usage
// text, exit 2 and nothing run.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-clients", "0"}, "-clients 0: want at least 1"},
		{[]string{"-size", "-1"}, "-size -1: want at least 1"},
		{[]string{"-size", "0"}, "-size 0: want at least 1"},
		{[]string{"-records", "-5"}, "-records -5: want at least 1"},
		{[]string{"-records", "0"}, "-records 0: want at least 1"},
		{[]string{"-ring", "0"}, "-ring 0: want at least 1"},
		{[]string{"-checkpoint-every", "-1"}, "-checkpoint-every -1: want at least 0"},
		{[]string{"-mode", "fast"}, `unknown mode "fast"`},
		{[]string{"-device", "hdd"}, `unknown device "hdd"`},
		{[]string{"-mode", "ba", "-device", "dc"}, "BA mode requires -device 2b"},
		{[]string{"extra"}, `unexpected argument "extra"`},
	} {
		code, out, errs := drive(tc.args...)
		if code != 2 || out != "" {
			t.Errorf("%q: exit %d, stdout %q; want 2 and nothing printed", tc.args, code, out)
		}
		if !strings.Contains(errs, "walsim: "+tc.msg+"\n") || !strings.Contains(errs, "Usage of walsim") {
			t.Errorf("%q: stderr lacks %q or the usage text:\n%s", tc.args, tc.msg, errs)
		}
	}
}

// A run the log cannot hold is reported, exit 1, instead of a panic in
// a client proc.
func TestRunReportsLogFull(t *testing.T) {
	code, out, errs := drive("-mode", "sync", "-size", "60000", "-records", "1200", "-clients", "1")
	if code != 1 || out != "" || !strings.Contains(errs, "walsim: wal: log full") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 1 and the log-full error", code, out, errs)
	}
}
