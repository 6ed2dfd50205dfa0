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

func (e extent) end() ftl.LBA { return e.start + ftl.LBA(e.pages) }

func (e extent) overlaps(o extent) bool { return e.start < o.end() && o.start < e.end() }

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
	// Checked before rounding up, which would overflow near MaxInt64.
	if capacity > int64(fs.dev.Pages())*ps {
		return nil, fmt.Errorf("%w: capacity %d exceeds the device", ErrNoSpace, capacity)
	}
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

// Remove deletes a file, deallocates its pages on the device and
// returns them to the free pool: a copy still in the device's write
// buffer never lands on an extent a new file may own. It fails, and
// the file stays, when the LBA checker gates the deallocate.
func (fs *FS) Remove(name string) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err := fs.dev.Deallocate(f.ext.start, f.ext.pages); err != nil {
		return err
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

// Audit checks the allocator: the free list is sorted, coalesced and
// inside the device; every file's extent is inside the device and
// overlaps no free extent and no other file's; and the files and the
// free extents together cover every page, so they tile the device. A
// failure names the first offending file by name. It is pure: no
// yield, no allocation on success, no registry write.
func (fs *FS) Audit() error {
	end := ftl.LBA(fs.dev.Pages())
	covered := 0
	for i, e := range fs.free {
		if e.pages <= 0 || e.end() > end {
			return fmt.Errorf("vfs audit: free extent %d (lba %d, %d pages) is not inside the device's %d pages", i, e.start, e.pages, end)
		}
		if i > 0 && fs.free[i-1].end() >= e.start {
			return fmt.Errorf("vfs audit: free extent %d (lba %d) is out of order or not coalesced with the one before, which ends at lba %d",
				i, e.start, fs.free[i-1].end())
		}
		covered += e.pages
	}
	var bad *File
	for _, f := range fs.files {
		if (bad == nil || f.name < bad.name) && fs.misplaced(f) != nil {
			bad = f
		}
		covered += f.ext.pages
	}
	if bad != nil {
		return fs.misplaced(bad)
	}
	if covered != int(end) {
		return fmt.Errorf("vfs audit: files and free extents cover %d of the device's %d pages", covered, end)
	}
	return nil
}

// misplaced reports what is wrong with f's extent: it lies outside the
// device, or over a free extent, or over another file (the first by
// name).
func (fs *FS) misplaced(f *File) error {
	e := f.ext
	if e.pages <= 0 || e.end() > ftl.LBA(fs.dev.Pages()) {
		return fmt.Errorf("vfs audit: %s (lba %d, %d pages) is not inside the device's %d pages", f.name, e.start, e.pages, fs.dev.Pages())
	}
	for _, fr := range fs.free {
		if e.overlaps(fr) {
			return fmt.Errorf("vfs audit: %s (lba %d, %d pages) overlaps the free extent at lba %d", f.name, e.start, e.pages, fr.start)
		}
	}
	var other *File
	for _, g := range fs.files {
		if g != f && e.overlaps(g.ext) && (other == nil || g.name < other.name) {
			other = g
		}
	}
	if other != nil {
		return fmt.Errorf("vfs audit: %s (lba %d, %d pages) overlaps %s (lba %d, %d pages)", f.name, e.start, e.pages, other.name, other.ext.start, other.ext.pages)
	}
	return nil
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
	if off > f.capacity-int64(n) { // off+n would overflow near MaxInt64
		return fmt.Errorf("%w: %d bytes at %d of %d", ErrPastEnd, n, off, f.capacity)
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
