package main

import "strings"

// layerTable assembles every per-layer metric of a traced run. A value
// that has no source on this workload (a registry series that does not
// exist, a layer the workload never builds) is absent from the map; the
// report prints it as "-" and the result line as 0.
func layerTable(r *RunResult, ps *Probes, overheadRatio float64) map[string]float64 {
	t := map[string]float64{}
	ops := float64(r.Attempted)
	c := func(name string) (float64, bool) {
		v, ok := r.Delta.C[name]
		return float64(v), ok
	}
	perOp := func(metric, counter string) {
		if v, ok := c(counter); ok {
			t[metric] = v / ops
		}
	}
	ratio := func(metric, num, den string) {
		n, ok1 := c(num)
		d, ok2 := c(den)
		if ok1 && ok2 && d > 0 {
			t[metric] = n / d
		}
	}

	// Run counts from the registry.
	t["sim.events_per_op"] = float64(r.Events) / ops
	perOp("nand.page_programs_per_op", "nand.page_programs")
	perOp("nand.page_reads_per_op", "nand.page_reads")
	for _, g := range []string{"nand.die_busy_frac", "nand.chan_busy_frac"} {
		if v, ok := r.Delta.G[g]; ok {
			t[g] = v
		}
	}
	ratio("ftl.gc_relocations_per_host_write", "ftl.gc_relocations", "ftl.host_page_writes")
	perOp("ftl.gc_runs_per_op", "ftl.gc_runs")
	ratio("ftl.waf", "ftl.nand_page_writes", "ftl.host_page_writes")
	perOp("device.read_cmds_per_op", "device.read_cmds")
	perOp("device.write_cmds_per_op", "device.write_cmds")
	perOp("device.flush_cmds_per_op", "device.flush_cmds")
	perOp("pcie.mmio_writes_per_op", "pcie.mmio_writes")
	perOp("pcie.syncs_per_op", "pcie.syncs")
	perOp("pcie.wc_evictions_per_op", "pcie.wc_evictions")
	perOp("core.flushes_per_op", "2bssd.flushes")
	perOp("core.pages_flushed_per_op", "2bssd.pages_flushed")
	if v, ok := c("2bssd.gate_rejects"); ok {
		t["core.gate_rejects"] = v
	}
	perOp("wal.commits_per_op", "wal.commits")
	ratio("wal.flushes_per_commit", "wal.flushes", "wal.commits")
	ratio("wal.pad_bytes_share", "wal.pad_bytes", "wal.bytes_appended")
	if sum, ok := r.Delta.HistSum["wal.commit_ns"]; ok && r.OpTimeNs > 0 {
		t["wal.commit_time_share"] = float64(sum) / float64(r.OpTimeNs)
	}
	if n := r.Delta.HistN["wal.seg_rotate_ns"]; n > 0 {
		t["wal.seg.rotate.sim_us"] = float64(r.Delta.HistSum["wal.seg_rotate_ns"]) / float64(n) / 1e3
	}
	ratio("wal.seg.group_flushes_per_commit", "wal.seg_group_flushes", "wal.seg_commits")

	// What only the driver knows.
	for k, v := range r.Layer {
		t[k] = v
	}
	t["fail_share"] = float64(r.Failed) / ops

	for k, v := range probeTable(ps) {
		t[k] = v
	}

	// Attribution.
	for layer, share := range ps.attribute(r) {
		t[layer+".host_share"] = share
	}
	t["trace.overhead_ratio"] = overheadRatio
	return t
}

// probeTable is the part of the per-layer table that comes from the
// probes alone.
func probeTable(ps *Probes) map[string]float64 {
	t := map[string]float64{}
	for _, m := range perLayer {
		for _, suffix := range []string{".sim_us", ".sim_ns", ".sim_ms", ".host_ns", ".host_ms"} {
			op, ok := strings.CutSuffix(m.Name, suffix)
			if !ok {
				continue
			}
			res, ok := ps.By[op]
			if !ok {
				continue
			}
			v := res.SimNs
			if strings.HasPrefix(suffix, ".host") {
				v = res.HostNs
			}
			switch suffix {
			case ".sim_us":
				v /= 1e3
			case ".sim_ms", ".host_ms":
				v /= 1e6
			}
			t[m.Name] = v
		}
	}
	t["sim.host_ns_per_event"] = ps.By["sim.sleep"].HostNs
	t["sim.allocs_per_event"] = ps.By["sim.sleep"].Allocs
	t["sim.link.host_ns_per_msg"] = ps.By["sim.link"].HostNs
	t["ftl.gc_write.host_ns"] = ps.gcWriteHostNs()
	return t
}

// anchors are the paper's measurements the probes can be held against
// (EXPERIMENTS.md has the repository's own reference results).
var anchors = []struct {
	metric string
	paper  float64
	what   string
}{
	{"pcie.write64.sim_ns", 630, "MMIO store burst, paper Fig 7"},
	{"device.read4k.sim_us", 13.2, "ULL-SSD 4 KB QD1 read"},
	{"device.write4k.sim_us", 10, "ULL-SSD 4 KB QD1 write"},
	{"core.read_dma4k.sim_us", 58, "4 KB BA_READ_DMA"},
}
