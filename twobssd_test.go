package twobssd_test

import (
	"bytes"
	"testing"

	"twobssd"
)

// TestPublicAPIEndToEnd exercises the whole dual-path story through
// the public facade only: block write, pin, MMIO append, sync, power
// cycle, recovery, flush, block read-back.
func TestPublicAPIEndToEnd(t *testing.T) {
	env := twobssd.NewEnv()
	ssd := twobssd.New(env, twobssd.DefaultConfig())
	fs := twobssd.NewFS(ssd.Device())

	env.Go("app", func(p *twobssd.Proc) {
		f, err := fs.Create("data", 1<<20)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := f.WriteAt(p, 0, []byte("block-written")); err != nil {
			t.Fatalf("block write: %v", err)
		}
		if err := ssd.BAPin(p, 0, 0, f.LBA(0), 2); err != nil {
			t.Fatalf("pin: %v", err)
		}
		if err := ssd.Mmio().Write(p, 13, []byte("+mmio")); err != nil {
			t.Fatalf("mmio write: %v", err)
		}
		if err := ssd.BASync(p, 0); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if _, err := ssd.PowerLoss(p); err != nil {
			t.Fatalf("power loss: %v", err)
		}
		if err := ssd.PowerOn(p); err != nil {
			t.Fatalf("power on: %v", err)
		}
		if err := ssd.BAFlush(p, 0); err != nil {
			t.Fatalf("flush: %v", err)
		}
		got := make([]byte, 18)
		if err := f.ReadAt(p, 0, got); err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, []byte("block-written+mmio")) {
			t.Fatalf("got %q", got)
		}
	})
	env.Run()
}

// TestPublicAPIWAL drives a BA-WAL through the facade.
func TestPublicAPIWAL(t *testing.T) {
	env := twobssd.NewEnv()
	ssd := twobssd.New(env, twobssd.DefaultConfig())
	fs := twobssd.NewFS(ssd.Device())

	env.Go("app", func(p *twobssd.Proc) {
		f, err := fs.Create("wal", 32<<20)
		if err != nil {
			t.Fatal(err)
		}
		log, err := twobssd.OpenWAL(env, twobssd.WALConfig{
			Mode: twobssd.BACommit, File: f,
			SegmentBytes: twobssd.DefaultConfig().BABufferBytes / 2,
			SSD:          ssd, EIDs: []twobssd.EID{0, 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		lsn, err := log.Append(p, []byte("txn"))
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Commit(p, lsn); err != nil {
			t.Fatal(err)
		}
		if log.DurableOff() != int64(lsn) {
			t.Fatal("commit did not advance durability")
		}
	})
	env.Run()
}
