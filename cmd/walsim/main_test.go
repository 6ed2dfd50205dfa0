package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

func drive(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// The default run and every commit mode, on a single log file and on a
// checkpointed ring, print exactly the report pinned by its SHA-256:
// the run is virtual-time deterministic, so a change that means to move
// no number of the commit path leaves every digest as it is.
func TestRunModes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		sha  string
	}{
		{nil, "ce4e398dbb16317a7cd13e1e32a3a208f7b14342ffb33611b2783bf9e5fb8801"},
		{[]string{"-mode", "sync"}, "cc1c703db95d039d7739efec73987a64548309d2d8fe796076586dcfa6f529c6"},
		{[]string{"-mode", "async"}, "48047004680d159bc174033c1a98d307cc2d4976fceedae289b3205790acf19e"},
		{[]string{"-mode", "ba"}, "ce4e398dbb16317a7cd13e1e32a3a208f7b14342ffb33611b2783bf9e5fb8801"},
		{[]string{"-mode", "sync", "-ring", "4", "-checkpoint-every", "64"}, "b428df4eda7864869f8455d4ebb382b1b755fca44a955971a4e14024b9469f1e"},
		{[]string{"-mode", "async", "-ring", "4", "-checkpoint-every", "64"}, "fe977e19e18a66ca05afd68c0325d836d8875a0c1397c4050ca447281c9f1571"},
		{[]string{"-mode", "ba", "-ring", "4", "-checkpoint-every", "64"}, "fa1a86b15f3e30a2c05410a9aa9989f5d496bc27ff1f23b0bb1f475615ca2020"},
	} {
		code, out, errs := drive(tc.args...)
		if code != 0 || errs != "" {
			t.Fatalf("%q: exit %d, stderr %q", tc.args, code, errs)
		}
		if sum := sha256.Sum256([]byte(out)); hex.EncodeToString(sum[:]) != tc.sha {
			t.Errorf("%q: stdout SHA-256 %x, want %s:\n%s", tc.args, sum, tc.sha, out)
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
