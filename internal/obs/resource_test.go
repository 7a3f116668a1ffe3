package obs

import (
	"runtime"
	"strings"
	"testing"
)

func TestResidentBytesOnProc(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc only on linux")
	}
	rss, ok := ResidentBytes()
	if !ok {
		t.Fatal("ResidentBytes not ok on linux")
	}
	if rss <= 0 {
		t.Fatalf("rss = %d, want > 0", rss)
	}
}

// The fallback metric must appear under its own name, never as
// process_resident_memory_bytes, when /proc is unavailable.
func TestRuntimeMetricsFallbackName(t *testing.T) {
	orig := readResidentBytes
	readResidentBytes = func() (int64, bool) { return 0, false }
	defer func() { readResidentBytes = orig }()

	var sb strings.Builder
	WriteRuntimeMetrics(&sb)
	out := sb.String()
	if strings.Contains(out, "process_resident_memory_bytes") {
		t.Fatal("fallback impersonates process_resident_memory_bytes")
	}
	if !strings.Contains(out, "process_memory_goheap_fallback_bytes") {
		t.Fatalf("fallback metric missing:\n%s", out)
	}

	readResidentBytes = orig
	if runtime.GOOS == "linux" {
		sb.Reset()
		WriteRuntimeMetrics(&sb)
		if !strings.Contains(sb.String(), "process_resident_memory_bytes") {
			t.Fatal("real RSS metric missing on linux")
		}
	}
}
