package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// clockTicksPerSec is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
// Linux fixes it at 100 on every architecture Go supports; the standard
// library offers no sysconf to ask.
const clockTicksPerSec = 100

// parseStatCPU returns utime+stime in seconds from the text of a
// /proc/<pid>/stat file. The command name (field 2) is parenthesised and
// may itself hold spaces or parentheses, so fields are counted from the
// last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command name")
	}
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	fields := strings.Fields(stat[i+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command name, want ≥ 13", len(fields))
	}
	utime, err := strconv.ParseInt(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return float64(utime+stime) / clockTicksPerSec, nil
}

// procCPU returns the CPU seconds process pid ("self" for the harness)
// has used so far.
func procCPU(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseVmHWM returns the peak resident set size in MB from the text of a
// /proc/<pid>/status file.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("status: no VmHWM line")
}

// peakRSS returns process pid's peak resident set size in MB.
func peakRSS(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// metricsText is one scrape of m3dserve's GET /metrics: counters and
// gauges by name, and each histogram as "<name>.count" and "<name>.sum".
type metricsText map[string]float64

// parseMetrics reads the obs.Registry.WriteText format:
//
//	counter serve.requests 42
//	gauge serve.inflight 3
//	histogram serve.request.seconds count=42 sum=0.125
func parseMetrics(r io.Reader) (metricsText, error) {
	m := make(metricsText)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		switch {
		case (f[0] == "counter" || f[0] == "gauge") && len(f) == 3:
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("metrics %s: %w", f[1], err)
			}
			m[f[1]] = v
		case f[0] == "histogram" && len(f) == 4:
			for _, kv := range f[2:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok || (k != "count" && k != "sum") {
					return nil, fmt.Errorf("metrics %s: malformed field %q", f[1], kv)
				}
				x, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, fmt.Errorf("metrics %s.%s: %w", f[1], k, err)
				}
				m[f[1]+"."+k] = x
			}
		default:
			return nil, fmt.Errorf("metrics: malformed line %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return m, nil
}

// delta returns after[name] − before[name]; absent names count as 0.
func (after metricsText) delta(before metricsText, name string) float64 {
	return after[name] - before[name]
}
