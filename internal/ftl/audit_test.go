package ftl

import (
	"fmt"
	"math/rand"
	"testing"

	"twobssd/internal/nand"
	"twobssd/internal/sim"
)

// auditedFTL is a drive past its first collections: every LBA written,
// then overwritten at random, so relocation has moved pages and blocks
// hold every number of valid pages, and every tenth LBA trimmed. Its
// map passes the audit.
func auditedFTL(t *testing.T) *FTL {
	t.Helper()
	e := sim.NewEnv()
	f := newTestFTL(e)
	n := int(f.ExportedPages())
	e.Go("fill", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(1))
		for op := 0; op < 4*n; op++ {
			lba := LBA(op)
			if op >= n {
				lba = LBA(rng.Intn(n))
			}
			if err := f.WritePage(p, lba, []byte(fmt.Sprintf("v%d", op))); err != nil {
				t.Errorf("write %d: %v", lba, err)
				return
			}
		}
		for lba := LBA(0); lba < LBA(n); lba += 10 {
			f.Trim(lba)
		}
	})
	e.Run()
	if counter(t, e, "ftl.gc_relocations") == 0 {
		t.Fatal("no page was relocated")
	}
	if err := f.Audit(); err != nil {
		t.Fatalf("a clean drive fails the audit: %v", err)
	}
	return f
}

func TestAuditFindsPlantedBugs(t *testing.T) {
	const lba, other = 5, 6
	for _, tc := range []struct {
		name  string
		plant func(f *FTL, ppa uint64)
	}{
		{"validCount off by one after a trim", func(f *FTL, ppa uint64) {
			f.Trim(lba)
			f.validCount[ppa/f.piece]++
		}},
		{"p2l entry left behind by a trim", func(f *FTL, ppa uint64) {
			f.Trim(lba)
			f.set(f.p2l, ppa, lba+1)
			f.validCount[ppa/f.piece]++
		}},
		{"two LBAs map one PPA", func(f *FTL, ppa uint64) {
			old, _ := f.lookup(other)
			f.unbind(old)
			f.set(f.l2p, other, uint32(ppa)+1)
		}},
		{"a programmed block in the free pool", func(f *FTL, ppa uint64) {
			f.free = append(f.free, nand.BlockID(ppa/f.piece))
		}},
		{"a block awaiting its erase holds a valid page", func(f *FTL, ppa uint64) {
			f.erasers[0].queue = append(f.erasers[0].queue, nand.BlockID(ppa/f.piece))
			f.erasing++
		}},
		{"a free block awaiting its erase", func(f *FTL, ppa uint64) {
			f.erasers[0].queue = append(f.erasers[0].queue, f.free[0])
			f.erasing++
		}},
		{"a block free twice", func(f *FTL, ppa uint64) {
			f.free = append(f.free, f.free[0])
		}},
		{"an erased block open and free", func(f *FTL, ppa uint64) {
			f.open[0] = openBlock{blk: f.free[0], nextPage: 0}
		}},
		{"a block open on both frontiers", func(f *FTL, ppa uint64) {
			f.relocOpen[0] = f.open[0]
		}},
		{"a block open in two host slots", func(f *FTL, ppa uint64) {
			f.open[1] = f.open[0]
		}},
	} {
		f := auditedFTL(t)
		ppa, ok := f.lookup(lba)
		if !ok {
			t.Fatalf("lba %d is not mapped", lba)
		}
		tc.plant(f, uint64(ppa))
		if err := f.Audit(); err == nil {
			t.Errorf("%s: the audit passes", tc.name)
		} else {
			t.Logf("%s: %v", tc.name, err)
		}
	}
}

func TestAuditDoesNotAllocate(t *testing.T) {
	f := auditedFTL(t)
	audit := func() {
		if err := f.Audit(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(10, audit); n != 0 {
		t.Fatalf("Audit allocates %.1f times a run, want 0", n)
	}
	// And with victims waiting for their erase, whose pool checks run.
	n := int(f.ExportedPages())
	f.env.Go("churn", func(p *sim.Proc) {
		for i := 0; f.erasing == 0; i++ {
			if err := f.WritePage(p, LBA(i%n), []byte{2}); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
		if n := testing.AllocsPerRun(10, audit); n != 0 {
			t.Fatalf("Audit allocates %.1f times a run with %d blocks awaiting erase, want 0", n, f.erasing)
		}
	})
	f.env.Run()
}
