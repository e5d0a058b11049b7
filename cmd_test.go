package epnet

// End-to-end smoke tests for the command-line tools: each binary is
// built once and exercised on its primary path. Skipped with -short.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildTool compiles one cmd into a temp dir and returns its path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCommandsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd smoke tests skipped in -short mode")
	}
	dir := t.TempDir()

	t.Run("topopower", func(t *testing.T) {
		bin := buildTool(t, dir, "topopower")
		out := runTool(t, bin)
		for _, want := range []string{"8235", "4096", "1146880", "737280", "975 kW"} {
			if !strings.Contains(out, want) {
				t.Errorf("topopower output missing %q", want)
			}
		}
		// Custom shape.
		out = runTool(t, bin, "-k", "8", "-n", "4", "-c", "12", "-radix", "33")
		if !strings.Contains(out, "6144 hosts") {
			t.Errorf("custom topopower output missing host count:\n%s", out)
		}
	})

	t.Run("experiments-table1", func(t *testing.T) {
		bin := buildTool(t, dir, "experiments")
		out := runTool(t, bin, "-only", "table1")
		for _, want := range []string{"8235", "4096", "$1.61M", "$2.89M"} {
			if !strings.Contains(out, want) {
				t.Errorf("experiments table1 missing %q", want)
			}
		}
	})

	t.Run("tracegen-epsim-pipeline", func(t *testing.T) {
		tg := buildTool(t, dir, "tracegen")
		es := buildTool(t, dir, "epsim")
		trace := filepath.Join(dir, "t.trace")
		out := runTool(t, tg, "-workload", "advert", "-hosts", "64",
			"-horizon", "2ms", "-o", trace)
		if !strings.Contains(out, "wrote") {
			t.Fatalf("tracegen output: %s", out)
		}
		out = runTool(t, tg, "-inspect", trace, "-hosts", "64", "-horizon", "2ms")
		if !strings.Contains(out, "mean utilization") {
			t.Errorf("inspect output: %s", out)
		}
		out = runTool(t, es, "-workload", "trace", "-trace", trace,
			"-duration", "1ms", "-warmup", "200us")
		if !strings.Contains(out, "power") || !strings.Contains(out, "delivered=") {
			t.Errorf("epsim trace replay output: %s", out)
		}
	})

	t.Run("epsim-scenario", func(t *testing.T) {
		es := buildTool(t, dir, "epsim")
		// -check lints without running: config line plus one row per phase.
		out := runTool(t, es, "-scenario", "diurnal", "-check")
		if !strings.Contains(out, "config ok") {
			t.Fatalf("epsim -scenario diurnal -check: %s", out)
		}
		for _, phase := range []string{"night", "daytime", "evening"} {
			if !strings.Contains(out, phase) {
				t.Errorf("-check listing missing phase %q:\n%s", phase, out)
			}
		}
		// A real multi-phase run prints the per-phase scorecard.
		out = runTool(t, es, "-scenario", "mixed-tenant", "-warmup", "50us")
		if !strings.Contains(out, "scorecard (per phase):") {
			t.Errorf("epsim scenario run missing scorecard:\n%s", out)
		}
		if !strings.Contains(out, "delivered=") {
			t.Errorf("epsim scenario run missing traffic line:\n%s", out)
		}
	})

	t.Run("epsim-flow-trace", func(t *testing.T) {
		es := buildTool(t, dir, "epsim")
		out := runTool(t, es, "-scenario", "chaos", "-warmup", "50us",
			"-flow-trace", "-flow-sample", "1")
		for _, want := range []string{
			"flow trace: sample rate 1",
			"slowest traced packets:",
			"anomaly dumps:",
			"pJ/bit",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("flow-trace run missing %q:\n%s", want, out)
			}
		}
		// -flows-out implies -flow-trace and writes the CSV decomposition.
		flows := filepath.Join(dir, "flows.csv")
		runTool(t, es, "-duration", "300us", "-warmup", "100us", "-flows-out", flows)
		data, err := os.ReadFile(flows)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "phase,count,drops,bytes,") {
			t.Errorf("flows CSV missing header:\n%s", data)
		}
	})

	t.Run("epsim-trace-out-notice", func(t *testing.T) {
		es := buildTool(t, dir, "epsim")
		// The Chrome tracer needs the serial engine. With auto shards the
		// fallback must be announced, not silent.
		trace := filepath.Join(dir, "chrome.json")
		out := runTool(t, es, "-duration", "200us", "-warmup", "50us", "-trace-out", trace)
		const notice = "-trace-out needs the serial engine; running with shards=1"
		if !strings.Contains(out, notice) {
			t.Errorf("auto-shard trace run missing notice %q:\n%s", notice, out)
		}
		// An explicit -shards 1 is not a fallback: no notice.
		out = runTool(t, es, "-duration", "200us", "-warmup", "50us",
			"-shards", "1", "-trace-out", trace)
		if strings.Contains(out, notice) {
			t.Errorf("explicit -shards 1 still printed the fallback notice:\n%s", out)
		}
	})

	t.Run("epsim-json", func(t *testing.T) {
		es := buildTool(t, dir, "epsim")
		out := runTool(t, es, "-json", "-duration", "300us", "-warmup", "100us")
		if !strings.Contains(out, "\"RelPowerMeasured\"") ||
			!strings.Contains(out, "\"RateShare\"") {
			t.Errorf("epsim -json output incomplete:\n%s", out[:min(len(out), 400)])
		}
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	bin := buildTool(t, dir, "sweep")
	out := runTool(t, bin, "-x", "target", "-values", "0.25,0.5",
		"-workload", "search", "-duration", "500us", "-warmup", "200us")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want header + 2 rows:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "target,mean_latency_us") {
		t.Errorf("header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if cols := strings.Split(l, ","); len(cols) != 11 {
			t.Errorf("row has %d columns: %q", len(cols), l)
		}
	}
	// Unknown axis rejected.
	cmd := exec.Command(bin, "-x", "nope", "-values", "1")
	if err := cmd.Run(); err == nil {
		t.Error("unknown axis accepted")
	}
}

// TestEpsimGracefulShutdown pins the SIGTERM contract: the run stops
// cooperatively at the next epoch boundary, reports the cancellation,
// shuts the inspector down, and still flushes every output it opened.
func TestEpsimGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	bin := buildTool(t, dir, "epsim")
	metrics := filepath.Join(dir, "metrics.csv")
	flows := filepath.Join(dir, "flows.json")
	// A one-second simulation takes minutes of wall time, so the signal
	// always lands mid-run.
	cmd := exec.Command(bin, "-duration", "1s", "-warmup", "100us",
		"-listen", "127.0.0.1:0", "-metrics-out", metrics, "-flows-out", flows)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Second) // past startup: handler installed, outputs open
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("epsim exited clean; expected the canceled-run error:\n%s", out.String())
		}
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("epsim did not exit after SIGTERM:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "run canceled") {
		t.Errorf("missing cancellation report:\n%s", out.String())
	}
	for _, p := range []string{metrics, flows} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Errorf("output not flushed after SIGTERM: %v", err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("output %s flushed empty after SIGTERM", filepath.Base(p))
		}
	}
}

// flagSet lists a command's flags as "-name type" lines, parsed from
// its -h usage (flag.PrintDefaults: bool flags carry no type word).
func flagSet(t *testing.T, bin string) string {
	t.Helper()
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("%s -h: %v\n%s", filepath.Base(bin), err, out)
	}
	var sb strings.Builder
	for _, line := range strings.Split(string(out), "\n") {
		if !strings.HasPrefix(line, "  -") {
			continue
		}
		head, _, _ := strings.Cut(line, "\t")
		fields := strings.Fields(head)
		typ := "bool"
		if len(fields) > 1 {
			typ = fields[1]
		}
		sb.WriteString(fields[0] + " " + typ + "\n")
	}
	return sb.String()
}

// TestCommandFlagSets pins the name and type of every flag of the
// config-driven commands, so scripts that drive them keep working.
// Help text is free to change. Regenerate with
//
//	EPNET_UPDATE_GOLDEN=1 go test -run TestCommandFlagSets .
func TestCommandFlagSets(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	for _, name := range []string{"epsim", "sweep", "experiments"} {
		got := flagSet(t, buildTool(t, dir, name))
		golden := filepath.Join("testdata", "flags", name+".txt")
		if os.Getenv("EPNET_UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (regenerate with EPNET_UPDATE_GOLDEN=1)", err)
		}
		if got != string(want) {
			t.Errorf("%s flag set diverges from %s\nwant:\n%s\ngot:\n%s", name, golden, want, got)
		}
	}
}

// TestCommandOutputFlags: every output file a command is asked for gets
// written — flow reports on their own included, and output paths a
// scenario's config block sets, not only those given as flags.
func TestCommandOutputFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd smoke tests skipped in -short mode")
	}
	dir := t.TempDir()

	t.Run("experiments-flows-out-alone", func(t *testing.T) {
		bin := buildTool(t, dir, "experiments")
		flows := filepath.Join(dir, "flows.json")
		runTool(t, bin, "-only", "fig7", "-duration", "200us", "-warmup", "50us", "-flows-out", flows)
		for _, name := range []string{"flows.000.json", "flows.001.json"} {
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Errorf("-flows-out alone wrote no per-run report: %v", err)
			}
		}
	})

	t.Run("epsim-scenario-outputs", func(t *testing.T) {
		bin := buildTool(t, dir, "epsim")
		metrics := filepath.Join(dir, "m.csv")
		flows := filepath.Join(dir, "f.json")
		doc := `{"version": 1, "config": {"metrics_out": "` + metrics + `", "flows_out": "` + flows + `"},
		  "phases": [{"name": "only", "duration": "100us", "traffic": [{"workload": "uniform"}]}]}`
		scen := filepath.Join(dir, "s.json")
		if err := os.WriteFile(scen, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		runTool(t, bin, "-scenario", scen, "-warmup", "20us")
		for _, p := range []string{metrics, flows} {
			if _, err := os.Stat(p); err != nil {
				t.Errorf("scenario output path dropped: %v", err)
			}
		}
	})
}
