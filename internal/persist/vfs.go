// The VFS seam: every filesystem touch the store makes — open, write,
// sync, rename, remove, read, directory sync — goes through the FS
// interface instead of the os package directly. Production uses the real
// filesystem (OS); tests, TestScenario/diskchaos among them, inject
// internal/diskchaos's seeded fault-injecting implementation to exercise
// EIO, ENOSPC, torn writes, sync failures, rename failures, and
// read-side bitrot on the exact code paths a real disk would fail.
package persist

import (
	"io"
	"os"
)

// File is the store's view of one open file. The method set is exactly
// what the tiered store's WAL, segment and manifest code needs — nothing
// more, so a fault implementation stays small. ReaderAt serves segment
// lookups, which read a footer, an index, and one data block, never the
// whole file.
type File interface {
	io.ReaderAt
	io.Writer
	io.Seeker
	io.Closer
	Truncate(size int64) error
	Sync() error
}

// FS abstracts the filesystem operations the store performs.
// Implementations must be safe for concurrent use.
type FS interface {
	MkdirAll(dir string, perm os.FileMode) error
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir fsyncs a directory so renames and removals within it are
	// durable. Best-effort on filesystems without directory sync.
	SyncDir(dir string) error
}

// OS returns the real operating-system filesystem.
func OS() FS { return osFS{} }

// osFS is the passthrough FS over the os package.
type osFS struct{}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
