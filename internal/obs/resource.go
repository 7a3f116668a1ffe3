package obs

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// readResidentBytes is swapped by tests to exercise the fallback path
// on machines that do have /proc.
var readResidentBytes = procResidentBytes

// ResidentBytes reports the process's resident set size read from
// /proc/self/statm. ok is false where /proc is unavailable (non-Linux)
// or unparsable — callers then either omit the value or publish a
// differently named fallback, never report a lying zero.
func ResidentBytes() (bytes int64, ok bool) {
	return readResidentBytes()
}

// procResidentBytes reads field 2 (resident pages) of /proc/self/statm.
func procResidentBytes() (int64, bool) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil && line == "" {
		return 0, false
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return pages * int64(os.Getpagesize()), true
}
