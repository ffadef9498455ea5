// Package faultfs is the injectable filesystem seam under the service
// durability layer. Production code talks to the FS interface; tests
// swap in a Fault wrapper that fails the Nth write (optionally tearing
// it mid-record), the Nth fsync, rename, or open — the failure modes a
// write-ahead journal must survive. The crash-matrix tests drive every
// failpoint through the journal and assert that recovery either fully
// restores a session or drops it cleanly, never serving corrupt state.
package faultfs

import (
	"io"
	"io/fs"
	"os"
	"sync"
	"syscall"
)

// FS is the slice of filesystem the journal needs. OS is the production
// implementation; Fault wraps any FS with injected failures.
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	// OpenFile opens with os.OpenFile semantics (flag is O_* bits).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadFile(name string) ([]byte, error)
	// Stat reports the file now at name; with File.Stat it lets a
	// journal tell whether name is still the file it last wrote.
	Stat(name string) (fs.FileInfo, error)
}

// File is the writable handle the journal appends to.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Stat() (fs.FileInfo, error)
}

// OS passes every operation straight to the os package.
type OS struct{}

func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) Rename(oldpath, newpath string) error  { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error              { return os.Remove(name) }
func (OS) ReadFile(name string) ([]byte, error)  { return os.ReadFile(name) }
func (OS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

// Plan selects which operation fails. Counts are 1-based and global
// across the wrapped FS (all files); zero means "never fail". Err is
// the returned error, defaulting to ENOSPC — the disk-full case every
// journal eventually meets.
type Plan struct {
	FailWrite int // fail the Nth File.Write
	// Partial, with FailWrite, persists only the first Partial bytes of
	// the failing write before reporting the error — a torn record, the
	// on-disk state a crash mid-write leaves behind.
	Partial    int
	FailSync   int // fail the Nth File.Sync
	FailRename int // fail the Nth Rename
	FailOpen   int // fail the Nth OpenFile
	Err        error
}

// Fault wraps an FS with a failure Plan. Safe for concurrent use.
type Fault struct {
	inner FS

	mu      sync.Mutex
	plan    Plan
	writes  int
	syncs   int
	renames int
	opens   int
}

// New wraps inner with plan. A zero plan injects nothing.
func New(inner FS, plan Plan) *Fault {
	return &Fault{inner: inner, plan: plan}
}

// SetPlan replaces the plan and resets the operation counters, so one
// Fault can be re-armed between crash-matrix rounds.
func (f *Fault) SetPlan(plan Plan) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plan = plan
	f.writes, f.syncs, f.renames, f.opens = 0, 0, 0, 0
}

// Counts reports how many writes, syncs, renames, and opens have passed
// through since the last SetPlan — how wide the failpoint sweep must be.
func (f *Fault) Counts() (writes, syncs, renames, opens int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes, f.syncs, f.renames, f.opens
}

func (f *Fault) err() error {
	if f.plan.Err != nil {
		return f.plan.Err
	}
	return syscall.ENOSPC
}

// tickWrite advances the write counter; a non-negative partial return
// means "persist that many bytes, then fail with err".
func (f *Fault) tickWrite() (partial int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes++
	if f.plan.FailWrite > 0 && f.writes == f.plan.FailWrite {
		return f.plan.Partial, f.err()
	}
	return -1, nil
}

func (f *Fault) tickSync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs++
	if f.plan.FailSync > 0 && f.syncs == f.plan.FailSync {
		return f.err()
	}
	return nil
}

func (f *Fault) MkdirAll(path string, perm fs.FileMode) error { return f.inner.MkdirAll(path, perm) }

func (f *Fault) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f.mu.Lock()
	f.opens++
	fail := f.plan.FailOpen > 0 && f.opens == f.plan.FailOpen
	f.mu.Unlock()
	if fail {
		return nil, &fs.PathError{Op: "open", Path: name, Err: f.err()}
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fault: f, inner: file}, nil
}

func (f *Fault) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	f.renames++
	fail := f.plan.FailRename > 0 && f.renames == f.plan.FailRename
	f.mu.Unlock()
	if fail {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: f.err()}
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *Fault) Remove(name string) error             { return f.inner.Remove(name) }
func (f *Fault) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }

// Stat is not a failpoint: it writes nothing a crash could tear.
func (f *Fault) Stat(name string) (fs.FileInfo, error) { return f.inner.Stat(name) }

type faultFile struct {
	fault *Fault
	inner File
}

func (f *faultFile) Write(p []byte) (int, error) {
	partial, err := f.fault.tickWrite()
	if err != nil {
		n := 0
		if partial > 0 {
			if partial > len(p) {
				partial = len(p)
			}
			// Tear the record: part of it reaches the file, then the
			// failure hits. The journal's checksum must catch the stub.
			n, _ = f.inner.Write(p[:partial])
		}
		return n, err
	}
	return f.inner.Write(p)
}

func (f *faultFile) Sync() error {
	if err := f.fault.tickSync(); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *faultFile) Close() error               { return f.inner.Close() }
func (f *faultFile) Stat() (fs.FileInfo, error) { return f.inner.Stat() }
