package integrity

import (
	"errors"
	"testing"
)

func TestPageCRCDetectsBitFlip(t *testing.T) {
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i * 7)
	}
	tag := PageCRC(page)
	if err := Check(page, tag); err != nil {
		t.Fatalf("clean page failed check: %v", err)
	}
	page[1000] ^= 0x01
	err := Check(page, tag)
	if err == nil {
		t.Fatal("single bit flip not detected")
	}
	if !errors.Is(err, ErrPageCorrupt) {
		t.Fatalf("error %v does not wrap ErrPageCorrupt", err)
	}
}

func TestPageCRCIsContentOnly(t *testing.T) {
	a := []byte{1, 2, 3}
	b := []byte{1, 2, 3}
	if PageCRC(a) != PageCRC(b) {
		t.Fatal("identical contents produced different tags")
	}
	if PageCRC([]byte{1, 2, 3}) == PageCRC([]byte{3, 2, 1}) {
		t.Fatal("reordered contents produced the same tag")
	}
}

func TestPaddedCRCIsTheCRCOfThePaddedPage(t *testing.T) {
	for _, size := range []int{3, 4096, 9000} {
		page := make([]byte, size)
		copy(page, "abc")
		if got, want := PaddedCRC([]byte("abc"), size), PageCRC(page); got != want {
			t.Errorf("size %d: PaddedCRC %08x, CRC of the padded page %08x", size, got, want)
		}
	}
}
