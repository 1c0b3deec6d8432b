package storage

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// OSDisk stores files under a root directory of the host file system.
// It is the backend for functional tests and the runnable examples: the
// concatenation property of traditional-order disk schemas (paper §3)
// can be demonstrated on real files with cat.
type OSDisk struct {
	root string
}

// NewOSDisk returns a Disk rooted at dir, creating it if necessary.
func NewOSDisk(dir string) (*OSDisk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &OSDisk{root: dir}, nil
}

// NodeDir is the directory of I/O node i under a cluster directory
// root (a panda.Config.Dir): root/ion<i>.
func NodeDir(root string, i int) string {
	return filepath.Join(root, nodeDirPrefix+strconv.Itoa(i))
}

// NodeIndex is NodeDir's inverse on a directory's base name: the I/O
// node index of "ion3" is 3, and any other name is no node's.
func NodeIndex(name string) (int, bool) {
	i, err := strconv.Atoi(strings.TrimPrefix(name, nodeDirPrefix))
	return i, err == nil && i >= 0 && NodeDir("", i) == name
}

const nodeDirPrefix = "ion"

// Root returns the backing directory.
func (d *OSDisk) Root() string { return d.root }

// path maps a file name to a host path, flattening separators so names
// like "temperature.3" or "ckpt/density.0" stay inside the root.
func (d *OSDisk) path(name string) string {
	clean := strings.ReplaceAll(name, string(os.PathSeparator), "_")
	return filepath.Join(d.root, clean)
}

type osFile struct{ *os.File }

// HostFile returns the host file behind a handle OSDisk opened, looking
// through every observer that wraps it (a File with an Unwrap() File
// method, as errors.Unwrap looks through an error), and nil for every
// other handle — MemDisk's, or an interposer's such as SimDisk's and
// FaultDisk's — which has no file the kernel could send from itself. A
// caller borrows the file only while it holds the handle open.
func HostFile(f File) *os.File {
	for {
		switch h := f.(type) {
		case osFile:
			return h.File
		case *osWriter:
			return h.File
		case interface{ Unwrap() File }:
			f = h.Unwrap()
		default:
			return nil
		}
	}
}

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// osWriter is the read/write handle Create and Open return: an osFile
// that starts the kernel writing each range back as soon as the next
// one arrives. On a host file system WriteAt is a copy into the page
// cache and the media time sits in Sync; a server writing sub-chunks in
// file order would otherwise leave the disk idle for the whole pull and
// then wait for all of it at once (DESIGN §6c). The hint trails the
// writes by one, so a file written once never issues it and a file's
// last range is left to the Sync that follows — durability is Sync's
// alone, exactly as on osFile. Like the sinks that use it, a handle
// takes one WriteAt at a time.
type osWriter struct {
	osFile     // keeps the *os.File reachable, so fd cannot be finalised
	fd     int // osFile's descriptor, fetched once
	off    int64
	n      int // range of the previous WriteAt; 0 before the first
}

// hintHook, when set by a test, observes every writeback hint.
var hintHook func(off int64, n int)

func (w *osWriter) WriteAt(p []byte, off int64) (int, error) {
	if w.n > 0 {
		if hintHook != nil {
			hintHook(w.off, w.n)
		}
		_ = startWriteback(w.fd, w.off, w.n) // advisory: Sync is the barrier
	}
	n, err := w.File.WriteAt(p, off)
	w.off, w.n = off, n
	return n, err
}

// Close forgets the pending range: once the file is closed fd may name
// another file, and a late WriteAt must fail without hinting it.
func (w *osWriter) Close() error {
	w.n = 0
	return w.File.Close()
}

// Create implements Disk.
func (d *OSDisk) Create(name string) (File, error) {
	f, err := os.OpenFile(d.path(name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return newOSWriter(f), nil
}

func newOSWriter(f *os.File) *osWriter { return &osWriter{osFile: osFile{f}, fd: int(f.Fd())} }

// Open implements Disk. A file opened read/write gets Create's
// write-behind handle, since a server overwrites a recycled epoch file
// in place through it; a read-only data set still reads.
func (d *OSDisk) Open(name string) (File, error) {
	f, err := os.OpenFile(d.path(name), os.O_RDWR, 0o644)
	if err == nil {
		return newOSWriter(f), nil
	}
	if errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	if f, err = os.Open(d.path(name)); err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Remove implements Disk.
func (d *OSDisk) Remove(name string) error {
	return os.Remove(d.path(name))
}

// Rename implements Disk via the host's atomic rename.
func (d *OSDisk) Rename(oldName, newName string) error {
	return os.Rename(d.path(oldName), d.path(newName))
}

// List implements Disk.
func (d *OSDisk) List() ([]string, error) {
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// FlushCache implements Disk. Dropping the host page cache requires
// privileges we do not assume, so this is a no-op; timing on OSDisk is
// not used for the paper's figures (SimDisk is).
func (d *OSDisk) FlushCache() {}
