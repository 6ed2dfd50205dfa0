package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"twobssd/internal/bench"
	"twobssd/internal/obs"
)

// digestIDs are the experiments `bench2b digest` fingerprints: every
// campaign sweep and its smoke, the fleet scenarios and the paper
// artifacts. GOLDEN.json holds their digests; a change that means to
// move no simulated number leaves it untouched.
var digestIDs = []string{"crash", "crash-smoke", "fuzz", "fuzz-smoke", "wal-life", "wal-life-smoke", "fleet", "fleet-smoke", "all"}

// hostFields are the report fields read off the host's clock and
// allocator; they differ run to run and are dropped before hashing.
var hostFields = map[string]bool{"wall_ns": true, "mallocs": true, "events_per_sec": true, "allocs_per_event": true}

// digest runs each of digestIDs at quick scale, as if with -metrics
// and -timeline, and writes one SHA-256 per artifact — its stdout, its
// metrics snapshot and its timeline, host fields stripped — as the JSON
// GOLDEN.json holds. Every artifact is byte-identical at any -j, so the
// output is too. It returns errGate when an experiment's gate failed;
// the digests are written regardless.
func digest(jobs int, stdout io.Writer) error {
	r := bench.NewRunner(bench.Quick, jobs)
	sums := make(map[string]map[string]string, len(digestIDs))
	failures := 0
	for _, id := range digestIDs {
		selected, _ := selectExperiments([]string{id})
		col := obs.NewCollector(false)
		col.EnableSampling()
		col.Install()
		var out, metrics, timeline bytes.Buffer
		_, failed, err := runAll(r, selected, col, &out)
		col.Uninstall()
		if err != nil {
			return err
		}
		failures += failed
		if err := col.WriteMetricsJSON(&metrics); err != nil {
			return err
		}
		if err := col.WriteTimelineJSON(&timeline); err != nil {
			return err
		}
		sums[id] = map[string]string{"stdout": sha(out.Bytes())}
		for name, art := range map[string][]byte{"metrics": metrics.Bytes(), "timeline": timeline.Bytes()} {
			stripped, err := stripHostFields(art)
			if err != nil {
				return fmt.Errorf("digest %s %s: %w", id, name, err)
			}
			sums[id][name] = sha(stripped)
		}
	}
	if err := jsonReport(sums)(stdout); err != nil {
		return err
	}
	if failures > 0 {
		return errGate
	}
	return nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// stripHostFields re-encodes a JSON document without the members named
// in hostFields, at any depth. Numbers keep their literal text.
func stripHostFields(doc []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	var strip func(v any)
	strip = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, x := range v {
				if hostFields[k] {
					delete(v, k)
				} else {
					strip(x)
				}
			}
		case []any:
			for _, x := range v {
				strip(x)
			}
		}
	}
	strip(v)
	return json.Marshal(v)
}
