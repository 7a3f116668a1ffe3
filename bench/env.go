package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// environment is the fingerprint recorded in every results file: two
// files are comparable as a trajectory only where these agree.
type environment struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	L2         string `json:"l2_cache"`
	L3         string `json:"l3_cache"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
}

func fingerprint() environment {
	env := environment{
		CPU: "unknown", L2: "unknown", L3: "unknown", Commit: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
	}
	if v := procField("/proc/cpuinfo", "model name"); v != "" {
		env.CPU = v
	}
	for _, idx := range []string{"index2", "index3"} {
		dir := "/sys/devices/system/cpu/cpu0/cache/" + idx + "/"
		level, _ := os.ReadFile(dir + "level")
		size, err := os.ReadFile(dir + "size")
		if err != nil {
			continue
		}
		switch strings.TrimSpace(string(level)) {
		case "2":
			env.L2 = strings.TrimSpace(string(size))
		case "3":
			env.L3 = strings.TrimSpace(string(size))
		}
	}
	// A checkout that is not a git repository keeps "unknown".
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// procField returns the value of the first "key : value" line of a
// /proc file.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is the high-water mark of this process's resident set
// (VmHWM), falling back to the Go runtime's view of memory obtained
// from the OS where /proc is not there.
func peakRSSMB() float64 {
	if f := strings.Fields(procField("/proc/self/status", "VmHWM")); len(f) == 2 {
		if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
			return kb / 1024
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// resetPeakRSS restarts the kernel's high-water mark at the current
// resident set (Linux: writing 5 to clear_refs). Where that is not
// possible the mark keeps growing and later readings include earlier
// work.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: see above
}
