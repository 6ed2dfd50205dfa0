// fsjournal demonstrates the paper's other motivating workload
// (Section IV): file-system metadata journaling. A jbd2-style journal
// commits block transactions through BA-WAL on the 2B-SSD, survives a
// crash before checkpoint, and replays on mount.
package main

import (
	"fmt"

	"twobssd/internal/core"
	"twobssd/internal/jfs"
	"twobssd/internal/sim"
	"twobssd/internal/vfs"
	"twobssd/internal/wal"
)

func main() {
	env := sim.NewEnv()
	ssd := core.New(env, core.DefaultConfig())
	fs := vfs.New(ssd.Device())

	open := func(p *sim.Proc) *jfs.Store {
		home, err := openOrCreate(fs, "fs.img", 256*jfs.BlockSize)
		if err != nil {
			panic(err)
		}
		// An 8 MB journal: a ring of two files, each half the BA-buffer,
		// pinned in two double-buffered windows.
		half := ssd.Config().BABufferBytes / 2
		s, err := jfs.Open(env, p, jfs.Config{
			Home: home,
			Log: wal.Config{
				Mode: wal.BA, FS: fs, Ring: 2, SegmentFileBytes: int64(half),
				SSD: ssd, EIDs: []core.EID{0, 1}, SegmentBytes: half / 2,
			},
		})
		if err != nil {
			panic(err)
		}
		return s
	}

	env.Go("demo", func(p *sim.Proc) {
		s := open(p)
		// Warm up: the first commit pays the one-time BA_PIN of the
		// journal segment.
		w := s.Begin()
		w.WriteBlock(0, []byte("superblock"))
		if err := w.Commit(p); err != nil {
			panic(err)
		}
		// A metadata update: allocate an inode — touches the inode
		// table block and the block bitmap, atomically.
		start := env.Now()
		tx := s.Begin()
		tx.WriteBlock(5, []byte("inode 1042: file.txt, size=0"))
		tx.WriteBlock(1, []byte("bitmap: block 1042 allocated"))
		if err := tx.Commit(p); err != nil {
			panic(err)
		}
		fmt.Printf("journaled 2-block metadata txn in %v (BA commit)\n",
			sim.Duration(env.Now()-start))

		// Crash before any checkpoint: the home image is still stale.
		fmt.Println("power failure before checkpoint!")
		if _, err := ssd.PowerLoss(p); err != nil {
			panic(err)
		}
		if err := ssd.PowerOn(p); err != nil {
			panic(err)
		}

		// Remount: the journal replays into the pending set.
		s2 := open(p)
		fmt.Printf("remount replayed %d journal transactions\n", s2.Stats().Replayed)
		got, err := s2.ReadBlock(p, 5)
		if err != nil {
			panic(err)
		}
		fmt.Printf("inode block after recovery: %q\n", got[:28])

		// Checkpoint writes it home for good.
		if err := s2.Checkpoint(p); err != nil {
			panic(err)
		}
		fmt.Println("checkpoint complete; journal truncated")
	})
	env.Run()
}

func openOrCreate(fs *vfs.FS, name string, capacity int64) (*vfs.File, error) {
	if fs.Exists(name) {
		return fs.Open(name)
	}
	return fs.Create(name, capacity)
}
