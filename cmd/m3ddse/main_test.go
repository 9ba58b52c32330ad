package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"m3d/internal/vary"
)

// TestVariationSamplesCheck pins the -samples bounds of the -variation
// flag group: a count outside [1, vary.MaxSamples] is refused with
// -variation on and ignored with it off.
func TestVariationSamplesCheck(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{[]string{"-variation"}, true},
		{[]string{"-variation", "-samples", "1"}, true},
		{[]string{"-variation", "-samples", strconv.Itoa(vary.MaxSamples)}, true},
		{[]string{"-variation", "-samples", "-1"}, false},
		{[]string{"-variation", "-samples", "0"}, false},
		{[]string{"-variation", "-samples", strconv.Itoa(vary.MaxSamples + 1)}, false},
		{[]string{"-samples", "0"}, true},
	} {
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		vf := registerVariationFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if err := vf.validate(); (err == nil) != tc.ok {
			t.Errorf("%v: validate() = %v, want ok=%v", tc.args, err, tc.ok)
		}
	}
}

// TestVariationSamplesExit runs the command itself: the test binary
// re-executes itself with the command line after "--", where this test
// hands it to main. Both subcommands exit 2 with the range error on a
// bad -samples.
func TestVariationSamplesExit(t *testing.T) {
	if args := flag.Args(); len(args) > 0 && args[0] == "m3ddse" {
		os.Args = args
		main()
		os.Exit(0)
	}
	for _, args := range []string{
		"sweep -sweep delta -variation -samples -1",
		"sweep -sweep delta -variation -samples 0",
		"pareto -variation -samples 0",
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestVariationSamplesExit$", "--", "m3ddse"},
			strings.Fields(args)...)...)
		out, err := cmd.CombinedOutput()
		// A panic also exits 2, so the message is checked too.
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(string(out), "out of range") {
			t.Errorf("m3ddse %s: err %v, want exit status 2 with a range error; output:\n%s", args, err, out)
		}
	}
}
