// Package vfs is a minimal extent-based file layer over a block
// device: named, contiguously allocated files with byte-granular
// read/write (read-modify-write for partial pages) and fsync.
//
// Files are contiguous on purpose: the 2B-SSD BA_PIN API binds a
// BA-buffer range to a *contiguous* LBA range, so WAL segment files
// must map 1:1 onto LBA ranges (paper Section IV-B pins log files).
package vfs

import (
	"errors"
	"fmt"
	"sort"

	"twobssd/internal/device"
	"twobssd/internal/ftl"
	"twobssd/internal/sim"
)

// Errors reported by the file layer.
var (
	ErrExists    = errors.New("vfs: file exists")
	ErrNotFound  = errors.New("vfs: file not found")
	ErrNoSpace   = errors.New("vfs: no contiguous space")
	ErrPastEnd   = errors.New("vfs: access beyond file capacity")
	ErrBadLength = errors.New("vfs: negative offset or length")
)

type extent struct {
	start ftl.LBA
	pages int
}

// FS is a flat namespace of contiguous files on one device.
type FS struct {
	dev   *device.Device
	files map[string]*File
	free  []extent // sorted by start, coalesced
}

// New formats an empty filesystem over the device's whole capacity.
func New(dev *device.Device) *FS {
	return &FS{
		dev:   dev,
		files: make(map[string]*File),
		free:  []extent{{start: 0, pages: int(dev.Pages())}},
	}
}

// Device returns the underlying block device.
func (fs *FS) Device() *device.Device { return fs.dev }

// PageSize returns the device page size.
func (fs *FS) PageSize() int { return fs.dev.PageSize() }

// FreePages reports the total unallocated pages.
func (fs *FS) FreePages() int {
	n := 0
	for _, e := range fs.free {
		n += e.pages
	}
	return n
}

// Create allocates a contiguous file with the given byte capacity
// (rounded up to whole pages).
func (fs *FS) Create(name string, capacity int64) (*File, error) {
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("%w: capacity %d", ErrBadLength, capacity)
	}
	ps := int64(fs.PageSize())
	pages := int((capacity + ps - 1) / ps)
	ext, err := fs.alloc(pages)
	if err != nil {
		return nil, err
	}
	f := &File{fs: fs, name: name, ext: ext, capacity: int64(pages) * ps}
	fs.files[name] = f
	return f, nil
}

// Open returns an existing file.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return f, nil
}

// Exists reports whether a file exists.
func (fs *FS) Exists(name string) bool {
	_, ok := fs.files[name]
	return ok
}

// Remove deletes a file, trims its pages and returns them to the free
// pool.
func (fs *FS) Remove(name string) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	for i := 0; i < f.ext.pages; i++ {
		// Trim fails only on an LBA beyond the device, which no
		// extent holds. It reaches the FTL alone: a copy of the page
		// still queued in the device write buffer lands after it, a
		// known gap (DESIGN.md §11).
		_ = fs.dev.FTL().Trim(f.ext.start + ftl.LBA(i))
	}
	fs.release(f.ext)
	delete(fs.files, name)
	f.removed = true
	return nil
}

// List returns the file names in lexical order.
func (fs *FS) List() []string {
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// alloc finds the first free extent of at least `pages` pages.
func (fs *FS) alloc(pages int) (extent, error) {
	for i, e := range fs.free {
		if e.pages >= pages {
			out := extent{start: e.start, pages: pages}
			if e.pages == pages {
				fs.free = append(fs.free[:i], fs.free[i+1:]...)
			} else {
				fs.free[i] = extent{start: e.start + ftl.LBA(pages), pages: e.pages - pages}
			}
			return out, nil
		}
	}
	return extent{}, fmt.Errorf("%w: %d pages", ErrNoSpace, pages)
}

// release returns an extent to the free pool, coalescing neighbours.
func (fs *FS) release(ext extent) {
	fs.free = append(fs.free, ext)
	sort.Slice(fs.free, func(i, j int) bool { return fs.free[i].start < fs.free[j].start })
	out := fs.free[:1]
	for _, e := range fs.free[1:] {
		last := &out[len(out)-1]
		if last.start+ftl.LBA(last.pages) == e.start {
			last.pages += e.pages
		} else {
			out = append(out, e)
		}
	}
	fs.free = out
}

// File is one contiguous file.
type File struct {
	fs       *FS
	name     string
	ext      extent
	capacity int64
	size     int64 // high-water mark of written bytes
	removed  bool
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Capacity returns the allocated byte capacity.
func (f *File) Capacity() int64 { return f.capacity }

// Size returns the written high-water mark.
func (f *File) Size() int64 { return f.size }

// LBA returns the logical page address for a byte offset within the
// file. The file is contiguous, so a range maps to a contiguous LBA
// range — this is what BA_PIN consumes.
func (f *File) LBA(off int64) ftl.LBA {
	return f.ext.start + ftl.LBA(off/int64(f.fs.PageSize()))
}

// Pages returns the file capacity in pages.
func (f *File) Pages() int { return f.ext.pages }

// PageSize returns the device page size, the unit of an aligned ReadAt.
func (f *File) PageSize() int { return f.fs.PageSize() }

func (f *File) check(off int64, n int) error {
	if f.removed {
		return fmt.Errorf("%w: %s (removed)", ErrNotFound, f.name)
	}
	if off < 0 || n < 0 {
		return ErrBadLength
	}
	if off+int64(n) > f.capacity {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrPastEnd, off, off+int64(n), f.capacity)
	}
	return nil
}

// WriteAt writes data at a byte offset. Unaligned head/tail pages use
// read-modify-write, exactly like a page cache would.
func (f *File) WriteAt(p *sim.Proc, off int64, data []byte) error {
	if err := f.check(off, len(data)); err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	ps := int64(f.fs.PageSize())
	cur := off
	rem := data
	var page []byte // the partial pages' read-modify-write buffer
	for len(rem) > 0 {
		pageOff := cur % ps
		if pageOff == 0 && int64(len(rem)) >= ps {
			// Fast path: whole aligned pages in one command.
			whole := (int64(len(rem)) / ps) * ps
			if err := f.fs.dev.WritePages(p, f.LBA(cur), rem[:whole]); err != nil {
				return err
			}
			cur += whole
			rem = rem[whole:]
			continue
		}
		// Partial page: read-modify-write.
		n := ps - pageOff
		if int64(len(rem)) < n {
			n = int64(len(rem))
		}
		if page == nil {
			page = make([]byte, ps)
		}
		if err := f.fs.dev.ReadPagesInto(p, f.LBA(cur), page); err != nil {
			return err
		}
		copy(page[pageOff:], rem[:n])
		if err := f.fs.dev.WritePages(p, f.LBA(cur), page); err != nil {
			return err
		}
		cur += n
		rem = rem[n:]
	}
	if off+int64(len(data)) > f.size {
		f.size = off + int64(len(data))
	}
	return nil
}

// ReadAt reads len(buf) bytes from a byte offset, in one device command.
// A page-aligned range lands in buf itself while the command runs, so buf
// must not be shared with another read in flight; on an error its
// contents are undefined.
func (f *File) ReadAt(p *sim.Proc, off int64, buf []byte) error {
	if err := f.check(off, len(buf)); err != nil {
		return err
	}
	if len(buf) == 0 {
		return nil
	}
	ps := int64(f.fs.PageSize())
	if off%ps == 0 && int64(len(buf))%ps == 0 {
		return f.fs.dev.ReadPagesInto(p, f.LBA(off), buf)
	}
	firstPage := off / ps
	lastPage := (off + int64(len(buf)) - 1) / ps
	span := make([]byte, (lastPage-firstPage+1)*ps)
	if err := f.fs.dev.ReadPagesInto(p, f.LBA(off), span); err != nil {
		return err
	}
	copy(buf, span[off-firstPage*ps:])
	return nil
}

// Sync is fsync: it forces all acknowledged writes down to NAND.
func (f *File) Sync(p *sim.Proc) error {
	if f.removed {
		return fmt.Errorf("%w: %s (removed)", ErrNotFound, f.name)
	}
	return f.fs.dev.Flush(p)
}
