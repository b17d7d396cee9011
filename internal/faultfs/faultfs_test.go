package faultfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestOSRoundTrip(t *testing.T) {
	fs := OS()
	dir := t.TempDir()
	if err := fs.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "sub", "a")
	f, err := fs.OpenFile(p, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(p, p+".2"); err != nil {
		t.Fatal(err)
	}
	b, err := fs.ReadFile(p + ".2")
	if err != nil || string(b) != "hello" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}
}

func TestInjectorCrashTearsWrite(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f")
	in := New(Options{OpsBeforeCrash: 1}) // op 0: create, op 1: write crashes
	f, err := in.OpenFile(p, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("0123456789")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Write err = %v, want ErrCrashed", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if !in.Crashed() {
		t.Fatal("injector should report crashed")
	}
	// Post-crash: everything fails, even reads.
	if _, err := in.Open(p); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash Open err = %v", err)
	}
	if err := in.Rename(p, p+"x"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash Rename err = %v", err)
	}
	// The torn prefix (half the buffer) reached disk.
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "01234" {
		t.Fatalf("torn file = %q, want half the buffer", b)
	}
}

func TestInjectorCrashSkipsRename(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f")
	if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := New(Options{OpsBeforeCrash: 0})
	if err := in.Rename(p, p+".2"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Rename err = %v, want ErrCrashed", err)
	}
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("crashing rename must not move the file: %v", err)
	}
}

func TestInjectorMutationsCount(t *testing.T) {
	dir := t.TempDir()
	in := New(Options{OpsBeforeCrash: -1})
	f, err := in.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := in.Mutations(); got != 5 { // create + 3 writes + sync
		t.Fatalf("Mutations = %d, want 5", got)
	}
	if in.Crashed() {
		t.Fatal("should never crash with OpsBeforeCrash < 0")
	}
}

func TestInjectorShortReads(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f")
	if err := os.WriteFile(p, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := New(Options{OpsBeforeCrash: -1, ShortReads: 3})
	f, err := in.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() // read-only handle in a test
	buf := make([]byte, 10)
	n, err := f.Read(buf)
	if err != nil || n != 3 {
		t.Fatalf("short Read = %d, %v; want 3", n, err)
	}
	if _, err := io.ReadFull(f, buf[n:]); err != nil {
		t.Fatalf("ReadFull over short reads: %v", err)
	}
	if string(buf) != "0123456789" {
		t.Fatalf("assembled %q", buf)
	}
}

func TestInjectorSyncErrors(t *testing.T) {
	dir := t.TempDir()
	in := New(Options{OpsBeforeCrash: -1, SyncErrors: true})
	f, err := in.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() // test handle
	if err := f.Sync(); !errors.Is(err, ErrSync) {
		t.Fatalf("Sync err = %v, want ErrSync", err)
	}
	if in.Crashed() {
		t.Fatal("sync errors must not crash")
	}
}
