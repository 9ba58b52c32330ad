package main

import (
	"strconv"
	"strings"
	"testing"
)

func TestCheckYieldStream(t *testing.T) {
	el := func(samples int, done bool, errText string) string {
		s := `{"samples":` + strconv.Itoa(samples)
		if done {
			s += `,"done":true`
		}
		if errText != "" {
			s += `,"error":"` + errText + `"`
		}
		return s + "}"
	}
	stream := func(els ...string) []byte { return []byte("[\n" + strings.Join(els, ",\n") + "\n]\n") }
	good := stream(el(1024, false, ""), el(2048, false, ""), el(3072, false, ""), el(4096, false, ""), el(4096, true, ""))
	final, err := checkYield(good)
	if err != nil || string(final) != el(4096, true, "") {
		t.Errorf("checkYield(good) = %s, %v", final, err)
	}
	for name, body := range map[string][]byte{
		"no done":          stream(el(1024, false, ""), el(4096, false, "")),
		"two done":         stream(el(4096, true, ""), el(4096, true, "")),
		"not increasing":   stream(el(2048, false, ""), el(1024, false, ""), el(4096, true, "")),
		"in-band error":    stream(el(1024, false, ""), el(0, false, "boom"), el(4096, true, "")),
		"short final":      stream(el(1024, false, ""), el(2048, true, "")),
		"truncated stream": []byte("[\n" + el(1024, false, "") + ",\n"),
	} {
		if _, err := checkYield(body); err == nil {
			t.Errorf("%s: checkYield accepted %s", name, body)
		}
	}
}

// The hot mix is a function of the seed alone, weighted 4:2:1:1 across
// sweep, flow, batch and healthz.
func TestHotMixIsSeeded(t *testing.T) {
	a, table := hotMix(7)
	b, _ := hotMix(7)
	c, _ := hotMix(8)
	weights := map[string]int{}
	for _, i := range table {
		weights[a[i].class]++
	}
	if weights["sweep"] != 4 || weights["flow"] != 2 || weights["batch"] != 1 || weights["healthz"] != 1 {
		t.Errorf("weights = %v", weights)
	}
	differ := false
	for i := range a {
		if string(a[i].body) != string(b[i].body) {
			t.Errorf("request %d differs for the same seed", i)
		}
		differ = differ || string(a[i].body) != string(c[i].body)
	}
	if !differ {
		t.Error("seeds 7 and 8 generate the same mix")
	}
}
