package main

import (
	"strings"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// The command name holds a space and a ')' of its own; utime=250 and
	// stime=50 ticks are fields 14 and 15.
	stat := "4242 (m3d serve) x)) S 1 4242 4242 0 -1 4194560 1523 0 0 0 250 50 0 0 20 0 9 0 123456 1234567 890 18446744073709551615\n"
	got, err := parseStatCPU(stat)
	if err != nil || got != 3.0 {
		t.Errorf("parseStatCPU = %g, %v; want 3, nil", got, err)
	}
	for _, bad := range []string{"4242 m3dserve S 1", "4242 (m3dserve) S 1 2 3", "4242 (x) S 1 2 3 4 5 6 7 8 9 10 ten 0 0"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tm3dserve\nVmPeak:\t 1263616 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   18000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 20 {
		t.Errorf("parseVmHWM = %g, %v; want 20, nil", got, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM parsed")
	}
	if _, err := parseVmHWM("VmHWM:\t12 MB\n"); err == nil {
		t.Error("VmHWM in an unknown unit parsed")
	}
}

func TestParseMetricsText(t *testing.T) {
	text := "counter cache.evictions 0\n" +
		"gauge exec.pool.width 2\n" +
		"histogram flow.stage.seconds.route count=3 sum=2.5\n" +
		"counter serve.memo.hits 41\n"
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cache.evictions":                0,
		"exec.pool.width":                2,
		"flow.stage.seconds.route.count": 3,
		"flow.stage.seconds.route.sum":   2.5,
		"serve.memo.hits":                41,
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %g, want %g", k, m[k], v)
		}
	}
	before := metricsText{"serve.memo.hits": 40}
	if d := m.delta(before, "serve.memo.hits"); d != 1 {
		t.Errorf("delta(serve.memo.hits) = %g, want 1", d)
	}
	if d := m.delta(before, "exec.pool.width"); d != 2 {
		t.Errorf("delta of a name absent before = %g, want 2", d)
	}
	for _, bad := range []string{
		"counter serve.requests\n",
		"summary x 1\n",
		"histogram h count=1 max=2\n",
		"gauge g one\n",
	} {
		if _, err := parseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("parseMetrics(%q) succeeded", bad)
		}
	}
}
