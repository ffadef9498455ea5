package faultfs

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	var fsys FS = OS{}
	if err := fsys.MkdirAll(filepath.Join(dir, "a/b"), 0o755); err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, "a/b/x.txt")
	f, err := fsys.OpenFile(name, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// Stat by handle and by name agree on identity and size: the
	// journal's stale-handle check compares the two.
	byHandle, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	byName, err := New(fsys, Plan{}).Stat(name)
	if err != nil || !os.SameFile(byHandle, byName) || byName.Size() != 5 {
		t.Fatalf("Stat(%s) = %v, %v; want the written 5-byte file", name, byName, err)
	}
	if err := fsys.Rename(name, name+".2"); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Stat(name); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Stat of a renamed-away path: err = %v, want fs.ErrNotExist", err)
	}
	data, err := fsys.ReadFile(name + ".2")
	if err != nil || string(data) != "hello" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	// O_EXCL passes through: the journal's create relies on it.
	if _, err := fsys.OpenFile(name+".2", os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("exclusive create over an existing file: err = %v, want fs.ErrExist", err)
	}
	if err := fsys.Remove(name + ".2"); err != nil {
		t.Fatal(err)
	}
}

// TestFaultWrite: the Nth write fails with ENOSPC by default; Partial
// tears the record, leaving a prefix on disk.
func TestFaultWrite(t *testing.T) {
	dir := t.TempDir()
	fault := New(OS{}, Plan{FailWrite: 2, Partial: 3})
	name := filepath.Join(dir, "j")
	f, err := fault.OpenFile(name, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("first\n")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	n, err := f.Write([]byte("second\n"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("write 2 err = %v, want ENOSPC", err)
	}
	if n != 3 {
		t.Fatalf("torn write persisted %d bytes, want 3", n)
	}
	f.Close()
	data, _ := os.ReadFile(name)
	if string(data) != "first\nsec" {
		t.Fatalf("on-disk bytes %q, want torn prefix", data)
	}
	if w, _, _, _ := fault.Counts(); w != 2 {
		t.Fatalf("write count %d, want 2", w)
	}
}

func TestFaultSyncRenameOpen(t *testing.T) {
	dir := t.TempDir()
	custom := errors.New("boom")
	fault := New(OS{}, Plan{FailSync: 1, Err: custom})
	f, err := fault.OpenFile(filepath.Join(dir, "s"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, custom) {
		t.Fatalf("sync err = %v, want custom", err)
	}
	f.Close()

	fault.SetPlan(Plan{FailRename: 1})
	if err := fault.Rename(filepath.Join(dir, "s"), filepath.Join(dir, "t")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("rename err = %v, want ENOSPC", err)
	}
	// Counter reset by SetPlan: the next rename passes.
	fault.SetPlan(Plan{FailRename: 2})
	if err := fault.Rename(filepath.Join(dir, "s"), filepath.Join(dir, "t")); err != nil {
		t.Fatalf("unfaulted rename: %v", err)
	}

	fault.SetPlan(Plan{FailOpen: 1})
	if _, err := fault.OpenFile(filepath.Join(dir, "u"), os.O_CREATE|os.O_WRONLY, 0o644); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("open err = %v, want ENOSPC", err)
	}
}
