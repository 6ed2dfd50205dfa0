// dualpath demonstrates the consistency machinery between the two
// datapaths: the LBA checker gating block I/O to pinned ranges, the
// write-verify-read durability protocol, and the read DMA engine for
// bulk reads of BA-buffer contents.
package main

import (
	"errors"
	"fmt"

	"twobssd/internal/core"
	"twobssd/internal/sim"
)

func main() {
	env := sim.NewEnv()
	ssd := core.New(env, core.DefaultConfig())

	env.Go("demo", func(p *sim.Proc) {
		ps := ssd.PageSize()

		// Put recognizable data on NAND through the block path.
		if err := ssd.Device().WritePages(p, 100, make([]byte, 8*ps)); err != nil {
			panic(err)
		}

		// Pin LBAs [100,108) to the BA-buffer.
		if err := ssd.BAPin(p, 0, 0, 100, 8); err != nil {
			panic(err)
		}
		ent, _ := ssd.BAGetEntryInfo(p, 0)
		fmt.Printf("entry %d: BA-buffer [%d,%d) <-> LBA [%d,%d)\n",
			ent.ID, ent.Offset, ent.Offset+ent.Pages*ps, ent.LBA, ent.LBA+8)

		// The LBA checker rejects block I/O that overlaps the pin.
		err := ssd.Device().WritePages(p, 103, make([]byte, ps))
		fmt.Printf("block write into pinned range: %v\n", err)
		if !errors.Is(err, core.ErrPinnedRange) {
			panic("LBA checker failed to gate")
		}
		err = ssd.Device().ReadPagesInto(p, 99, make([]byte, 2*ps))
		fmt.Printf("block read overlapping pinned range: %v\n", err)

		// Posted MMIO writes are invisible to the DMA engine until the
		// write-verify read commits them — the hazard the durability
		// protocol exists for.
		ssd.Mmio().Write(p, 0, []byte("hello"))
		dst := make([]byte, 5)
		ssd.BAReadDMA(p, 0, dst)
		fmt.Printf("DMA before BA_SYNC sees: %q (stale, still in WC buffer)\n", dst)
		ssd.BASync(p, 0)
		ssd.BAReadDMA(p, 0, dst)
		fmt.Printf("DMA after  BA_SYNC sees: %q\n", dst)

		// Bulk read comparison: plain MMIO loads vs the read DMA engine.
		buf := make([]byte, 4*ps)
		start := env.Now()
		ssd.Mmio().Read(p, 0, buf)
		mmio := sim.Duration(env.Now() - start)
		start = env.Now()
		ssd.BAReadDMA(p, 0, buf)
		dma := sim.Duration(env.Now() - start)
		fmt.Printf("16KB bulk read: MMIO %v vs readDMA %v (%.1fx)\n",
			mmio, dma, float64(mmio)/float64(dma))

		// Flush releases the gate.
		if err := ssd.BAFlush(p, 0); err != nil {
			panic(err)
		}
		if err := ssd.Device().WritePages(p, 103, make([]byte, ps)); err != nil {
			panic(err)
		}
		fmt.Println("after BA_FLUSH the block path owns the range again")
	})
	env.Run()
}
