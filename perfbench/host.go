package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo identifies the machine a result was measured on, so figures
// from different hosts are never compared silently.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	L2Bytes    int64  `json:"l2_bytes"`
	L3Bytes    int64  `json:"l3_bytes"`
}

// readHost reads the CPU model and cache sizes from the Linux /proc and
// /sys interfaces; fields it cannot read stay empty.
func readHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	for i := 0; i < 8; i++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/"
		level, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		size, err := os.ReadFile(dir + "size")
		if err != nil {
			continue
		}
		switch strings.TrimSpace(string(level)) {
		case "2":
			h.L2Bytes = parseSize(string(size))
		case "3":
			h.L3Bytes = parseSize(string(size))
		}
	}
	return h
}

// parseSize parses a sysfs cache size such as "1024K" or "32M".
func parseSize(s string) int64 {
	s = strings.TrimSpace(s)
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}
