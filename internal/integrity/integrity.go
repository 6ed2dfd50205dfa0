// Package integrity defines the end-to-end per-page integrity tag of
// the simulated 2B-SSD stack: a CRC computed over a page's contents at
// the host boundary (device.WritePages for the block path, BA_FLUSH and
// the recovery dump for the byte path) and carried out of band through
// ftl and nand so every read path — block reads, BA_PIN's internal
// datapath, the post-crash restore and the background scrubber — can
// verify that no layer in between silently corrupted the page.
//
// The tag is opaque to nand, which only carries it next to the page,
// the way real NAND carries host metadata in the page's spare area.
// Every page the FTL maps carries one (ftl.WritePage computes it when
// the caller did not), and the FTL's read is where a mapped page is
// checked. The other checks are of pages that do not come through the
// FTL: the device's write-buffer copies and the recovery dump, which
// the recovery manager reads from nand directly. All of them go through
// this package so both datapaths agree on the scheme.
package integrity

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrPageCorrupt reports a page whose stored CRC tag no longer matches
// its contents. Wrapped with location context by every verification
// site; match with errors.Is(err, integrity.ErrPageCorrupt).
var ErrPageCorrupt = errors.New("integrity: page CRC mismatch")

// castagnoli is the CRC-32C polynomial — the checksum real storage
// stacks (NVMe end-to-end protection, ext4 metadata_csum, Btrfs) use,
// with hardware support on every modern CPU.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// PageCRC computes the integrity tag of one page image.
func PageCRC(data []byte) uint32 {
	return crc32.Checksum(data, castagnoli)
}

// zeros is the padding PaddedCRC feeds the checksum.
var zeros [4096]byte

// PaddedCRC is PageCRC of data zero-padded to size bytes — the tag of a
// short write as the flash stores it — without building the padded page.
func PaddedCRC(data []byte, size int) uint32 {
	crc := PageCRC(data)
	for n := size - len(data); n > 0; n -= len(zeros) {
		crc = crc32.Update(crc, castagnoli, zeros[:min(n, len(zeros))])
	}
	return crc
}

// Check verifies data against the tag recorded when the page crossed
// the host boundary. The returned error wraps ErrPageCorrupt.
func Check(data []byte, tag uint32) error {
	if got := PageCRC(data); got != tag {
		return fmt.Errorf("%w: tag %08x, contents %08x", ErrPageCorrupt, tag, got)
	}
	return nil
}
