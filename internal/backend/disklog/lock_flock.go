//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package disklog

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lockDir takes an exclusive, non-blocking flock on dir/LOCK. The OS
// releases it when the holding file closes or the process dies, so a
// crash never leaves the directory unopenable. The frozen syscall
// package is used deliberately: flock is stable on every platform this
// file builds for, and the module takes no external dependencies.
func lockDir(dir string) (*dirLock, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disklog: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("disklog: %s is already open; one handle per directory: %w", dir, err)
	}
	return &dirLock{f: f}, nil
}
