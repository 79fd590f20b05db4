//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package disklog

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// lockDir emulates an exclusive directory lock on platforms without
// flock(2): dir/LOCK is created with O_EXCL and stamped with the
// owner's PID. Unlike the flock path, the OS does not reclaim the lock
// when the owner dies, so a crash leaves a stale file behind — the
// error names the recorded PID so the operator can verify the process
// is gone and remove the file by hand.
func lockDir(dir string) (*dirLock, error) {
	path := filepath.Join(dir, "LOCK")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			pid, _ := os.ReadFile(path)
			return nil, fmt.Errorf("disklog: %s is already open (LOCK held by pid %s); one handle per directory — remove %s only if that process is gone", dir, strings.TrimSpace(string(pid)), path)
		}
		return nil, fmt.Errorf("disklog: %w", err)
	}
	if _, err := f.WriteString(strconv.Itoa(os.Getpid())); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("disklog: %w", err)
	}
	return &dirLock{f: f, path: path}, nil
}
