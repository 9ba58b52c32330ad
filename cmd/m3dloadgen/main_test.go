package main

import (
	"fmt"
	"testing"
)

// firstBodies are the sweep bodies the default -distinct 4 has always
// cycled; they stay byte-identical so the default mix keeps measuring
// the same cache keys.
var firstBodies = []string{
	`{"kind":"bandwidth_cs","cs_counts":[1,2],"bw_scales":[1,2]}`,
	`{"kind":"bandwidth_cs","cs_counts":[1,2,4],"bw_scales":[1,2,4]}`,
	`{"kind":"bandwidth_cs","cs_counts":[1,2,4,8],"bw_scales":[1,2,4,8]}`,
	`{"kind":"bandwidth_cs","cs_counts":[1,2,4,8,16],"bw_scales":[1,2,4,8,16]}`,
}

// TestBuildMixDistinct requires -distinct N to yield N sweep items with
// N different bodies, the first four of them unchanged, and N below 1 to
// fail, as -c below 1 does, instead of silently becoming 1.
func TestBuildMixDistinct(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 4, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			items, err := buildMix("sweep=3", n)
			if n < 1 {
				if err == nil {
					t.Fatalf("buildMix(-distinct %d) succeeded, want an error", n)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(items) != n {
				t.Fatalf("%d items, want %d", len(items), n)
			}
			seen := make(map[string]int, n)
			for i, it := range items {
				if it.path != "/v1/sweep" || it.weight != 3 {
					t.Errorf("item %d = %s weight %d, want /v1/sweep weight 3", i, it.path, it.weight)
				}
				if j, dup := seen[it.body]; dup {
					t.Errorf("bodies %d and %d are both %s", j, i, it.body)
				}
				seen[it.body] = i
				if i < len(firstBodies) && it.body != firstBodies[i] {
					t.Errorf("body %d = %s, want %s", i, it.body, firstBodies[i])
				}
			}
		})
	}
}

// TestCPUModel reads the first model name of a cpuinfo text and falls
// back to "unknown" without one.
func TestCPUModel(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"processor\t: 0\nmodel name\t: AMD EPYC\nprocessor\t: 1\nmodel name\t: other\n", "AMD EPYC"},
		{"processor\t: 0\nFeatures\t: fp asimd\n", "unknown"},
		{"", "unknown"},
	} {
		if got := cpuModel(tc.in); got != tc.want {
			t.Errorf("cpuModel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
