// Package fsatomic is the one shared implementation of the atomic file
// install idiom: write a temp file in the destination directory, fsync
// it, rename it over the destination, then fsync the parent directory so
// a power cut after the rename cannot leave the publish unrecorded in
// the directory itself. Every temp+rename site in the tree (shard
// manifests, lease files, evaluation-cache entries, trace snapshots) goes
// through here, and the failpoint-aware variants cooperate with
// faultject to inject ENOSPC, short writes, and torn renames exactly at
// the install boundary.
package fsatomic

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"

	"repro/internal/faultject"
)

// WriteFile atomically installs data at path.
func WriteFile(path string, data []byte) error {
	return WriteFileFP(path, data, "")
}

// WriteFileFP is WriteFile with a faultject failpoint consulted before
// the install: enospc fails up front, short lands half the temp bytes
// and errors, torn publishes truncated content (the rename succeeds but
// the payload is cut, as after an unsynced write plus power cut), and
// kill terminates the process between temp write and rename.
func WriteFileFP(path string, data []byte, point string) error {
	kill := false
	if point != "" && faultject.Enabled() {
		if f := faultject.Fire(point); f != nil {
			switch f.Kind {
			case faultject.KindENOSPC:
				return &fs.PathError{Op: "write", Path: path, Err: syscall.ENOSPC}
			case faultject.KindShortWrite:
				tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
				if err == nil {
					tmp.Write(data[:len(data)/2])
					tmp.Close()
					os.Remove(tmp.Name())
				}
				return &fs.PathError{Op: "write", Path: path, Err: io.ErrShortWrite}
			case faultject.KindTornRename:
				data = data[:len(data)/2]
			case faultject.KindKill:
				kill = true
			}
		}
	}
	return install(path, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	}, kill)
}

// Install atomically installs the output of write at path. Used for
// streaming writers (trace snapshots) that render straight into the
// temp file.
func Install(path string, write func(io.Writer) error) error {
	return install(path, func(f *os.File) error { return write(f) }, false)
}

func install(path string, write func(*os.File) error, killBeforeRename bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if killBeforeRename {
		faultject.Kill()
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	tmp = nil
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so renames inside it are durable.
// Filesystems that reject directory fsync (EINVAL) are tolerated.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	if err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}
