package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procIO is the part of /proc/<pid>/io the benchmark counts: bytes and
// calls that crossed the kernel through read- and write-like syscalls.
type procIO struct {
	rchar, wchar, syscr, syscw int64
}

func (p procIO) bytes() int64    { return p.rchar + p.wchar }
func (p procIO) syscalls() int64 { return p.syscr + p.syscw }

func (p procIO) sub(q procIO) procIO {
	return procIO{p.rchar - q.rchar, p.wchar - q.wchar, p.syscr - q.syscr, p.syscw - q.syscw}
}

// parseProcIO reads the "key: value" lines of a /proc/<pid>/io file.
// The four fields counted must all be present.
func parseProcIO(r io.Reader) (procIO, error) {
	var p procIO
	fields := map[string]*int64{"rchar": &p.rchar, "wchar": &p.wchar, "syscr": &p.syscr, "syscw": &p.syscw}
	seen := 0
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		dst := fields[key]
		if !ok || dst == nil {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return procIO{}, fmt.Errorf("proc io: field %s: %w", key, err)
		}
		*dst = n
		seen++
	}
	if err := sc.Err(); err != nil {
		return procIO{}, fmt.Errorf("proc io: %w", err)
	}
	if seen != len(fields) {
		return procIO{}, fmt.Errorf("proc io: %d of %d fields present", seen, len(fields))
	}
	return p, nil
}

func readProcIO() (procIO, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return procIO{}, err
	}
	defer f.Close()
	return parseProcIO(f)
}

// costs is a snapshot of the process's exact cost counters.
type costs struct {
	mallocs    uint64
	allocBytes uint64
	io         procIO
	cpu        time.Duration
}

func readCosts() (costs, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	io, err := readProcIO()
	if err != nil {
		return costs{}, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return costs{}, fmt.Errorf("getrusage: %w", err)
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return costs{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, io: io, cpu: cpu}, nil
}

// storageBacking names the file system under dir from its statfs magic.
func storageBacking(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("fs-0x%x", uint32(st.Type))
}
