package bench

import (
	"runtime"
	"testing"
)

// TestPartitionSpeedupReport checks the -benchjson probe: every run
// completes, the identity check holds, the partitioned leg's worker
// count is what the host allows, and the report fields are sane.
func TestPartitionSpeedupReport(t *testing.T) {
	rep, err := PartitionSpeedup(Scale{AppOps: 1600})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical {
		t.Fatal("partitioned fleet diverged from serial run")
	}
	if rep.Shards != min(runtime.NumCPU(), 4) || rep.Pairs != 4 {
		t.Fatalf("got workers=%d devices=%d, want min(NumCPU,4)/4", rep.Shards, rep.Pairs)
	}
	if rep.Events == 0 || rep.SerialWallNs <= 0 || rep.PartitionedWallNs <= 0 || rep.Speedup <= 0 {
		t.Fatalf("implausible report: %+v", rep)
	}
}
