package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// procEntry is one live process as /proc shows it.
type procEntry struct {
	pid, ppid, pgrp int
}

// listProcs reads the process table; processes that end while it is being
// read are skipped.
func listProcs() []procEntry {
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	var out []procEntry
	for _, path := range stats {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		// "pid (comm) state ppid pgrp …": comm may hold spaces and brackets.
		rest := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+1:]))
		if len(rest) < 3 {
			continue
		}
		pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(path)))
		ppid, _ := strconv.Atoi(rest[1])
		pgrp, _ := strconv.Atoi(rest[2])
		out = append(out, procEntry{pid, ppid, pgrp})
	}
	return out
}

// peakRSSMB is the process's high-water resident set (VmHWM), 0 if it has
// ended.
func peakRSSMB(pid int) float64 {
	status, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
