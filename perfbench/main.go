// Command perfbench is epnet's whole-run benchmark. It runs one named
// workload through the public epnet entry points, repeats it in fresh
// child processes for the requested number of seconds, checks every
// run's simulated outputs, and prints one JSON result line. With
// --trace 1 it instead composes the same run from the layers' public
// calls and reports per-layer host time, memory and engine counts.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload paper-search --seed 1 --seconds 25 --trace 0
//
// See README.md for the workloads, metrics and gates.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Child kinds, each one process.
const (
	kindRun    = "run"    // the workload once, untraced, through its public entry point
	kindSetup  = "setup"  // the composed set-up only
	kindCheck  = "check"  // the harness grid through epnet.Run, for per-run Results
	kindTraced = "traced" // the composed, traced run
)

const (
	minRuns   = 3 // untraced whole runs per benchmark run, at least
	minSetups = 3 // set-up repetitions per benchmark run
	// budget bounds a benchmark run's host time: no child starts that
	// the slowest child of its kind so far would push past it.
	budget = 160 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed (1 matches the repo's goldens)")
	seconds := flag.Float64("seconds", 25, "seconds to measure for")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced runs")
	root := flag.String("root", ".", "repository checkout to read goldens from and write scratch files in")
	child := flag.String("child", "", "run one child process of this kind (internal)")
	profile := flag.Bool("profile", false, "profile the engine in run and check children (internal)")
	flag.Parse()
	if !knownWorkload(*name) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	if _, err := os.Stat(filepath.Join(*root, goldenPath)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v: run from the repository root\n", err)
		os.Exit(2)
	}
	if *child != "" {
		os.Exit(childMain(*child, *name, *seed, *root, *profile))
	}
	if err := parentMain(*name, *seed, *seconds, *trace == 1, *root); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// childMain runs one child and prints its record as the last line.
func childMain(kind, name string, seed int64, root string, profile bool) int {
	r := &record{}
	var err error
	switch kind {
	case kindRun:
		err = runChild(r, name, seed, root, profile)
	case kindSetup:
		err = setupChild(r, name, seed)
	case kindCheck:
		err = checkChild(r, seed, profile)
	case kindTraced:
		err = tracedChild(r, name, seed, root)
	default:
		err = fmt.Errorf("unknown child kind %q", kind)
	}
	if err != nil {
		r.fail("%s: %v", kind, err)
	}
	b, _ := json.Marshal(r) // a record holds only numbers, strings and maps of them
	fmt.Println(string(b))
	if err != nil {
		return 1
	}
	return 0
}

// childResult is one finished child: its record and peak RSS.
type childResult struct {
	kind   string
	rec    record
	rssMB  float64
	failed []string
}

func (c *childResult) ok() bool { return len(c.failed) == 0 }

type parent struct {
	name  string
	seed  int64
	root  string
	start time.Time
	ctx   context.Context
	self  string
	all   []*childResult
	// slowest child of each kind so far, for the budget.
	slowest map[string]time.Duration
}

// spawn runs one child to completion and collects its record.
// With profile, run and check children profile the engine.
func (p *parent) spawn(kind string, profile bool) *childResult {
	cr := &childResult{kind: kind}
	p.all = append(p.all, cr)
	cmd := exec.CommandContext(p.ctx, p.self, "-child", kind, "-workload", p.name,
		"-seed", strconv.FormatInt(p.seed, 10), "-root", p.root,
		"-profile="+strconv.FormatBool(profile))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err := cmd.Run()
	if d := time.Since(t0); d > p.slowest[kind] {
		p.slowest[kind] = d
	}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			cr.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &cr.rec); jerr != nil {
		cr.failed = append(cr.failed, fmt.Sprintf("%s child: no record (%v, exit %v)", kind, jerr, err))
		return cr
	}
	cr.failed = append(cr.failed, cr.rec.Failures...)
	if err != nil && len(cr.failed) == 0 {
		cr.failed = append(cr.failed, fmt.Sprintf("%s child: %v", kind, err))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s %s: wall %.3fs setup %.3fs rss %.0fMB ok=%v\n",
		p.name, kind, cr.rec.WallS, cr.rec.SetupS, cr.rssMB, cr.ok())
	return cr
}

// fits reports whether another child of kind fits in the budget.
func (p *parent) fits(kind string) bool {
	return time.Since(p.start)+p.slowest[kind] < budget
}

func parentMain(name string, seed int64, seconds float64, traced bool, root string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget+10*time.Second)
	defer cancel()
	p := &parent{name: name, seed: seed, root: root, start: time.Now(), ctx: ctx, self: self,
		slowest: map[string]time.Duration{}}
	measure := time.Duration(seconds * float64(time.Second))

	var metrics map[string]value
	if traced {
		metrics = p.tracedRuns(measure)
	} else {
		metrics = p.untracedRuns(measure)
	}

	st := newStamp(name, seed, traced, root)
	for _, c := range p.all {
		for _, f := range c.failed {
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: FAIL %s\n", name, c.kind, f)
		}
	}
	failed := p.failedCount()
	for _, c := range p.all {
		if c.rec.Sim != nil && c.ok() {
			printRecord(map[string]any{"record": "simulated", "gated": false,
				"note":  "simulated outcome; the model is checked only against the repo's goldens and EXPERIMENTS.md",
				"stamp": st, "outcome": c.rec.Sim})
			break
		}
	}
	printRecord(map[string]any{"record": "host", "stamp": st, "metrics": metrics})
	res := map[string]any{
		"correct":   failed == 0,
		"attempted": len(p.all),
		"failed":    failed,
		"metrics":   metrics,
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func printRecord(v any) {
	b, err := json.Marshal(v)
	if err == nil {
		fmt.Println(string(b))
	}
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// untracedRuns alternates whole runs and set-ups until the measuring
// time is spent and each has its minimum count, then checks that every
// run repeated the first one's simulated output.
func (p *parent) untracedRuns(measure time.Duration) map[string]value {
	var runs, setups []*childResult
	for {
		if time.Since(p.start) >= measure && len(runs) >= minRuns && len(setups) >= minSetups {
			break
		}
		// A set-up follows each of the first runs; then runs alone fill
		// the measuring time.
		kind := kindRun
		if len(setups) < minSetups && (len(setups) < len(runs) || len(runs) >= minRuns) {
			kind = kindSetup
		}
		if len(runs) > 0 && !p.fits(kind) {
			break
		}
		c := p.spawn(kind, false)
		if kind == kindRun {
			runs = append(runs, c)
		} else {
			setups = append(setups, c)
		}
		if !c.ok() {
			break // the run already counts as failed; repeating it adds nothing
		}
	}
	var delivered int64 = -1
	if p.name == "harness-fig9b" {
		check := p.spawn(kindCheck, false)
		if check.ok() {
			delivered = check.rec.Delivered
			if len(runs) > 0 && check.rec.Digest != runs[0].rec.Digest {
				check.failed = append(check.failed, fmt.Sprintf("check rows digest %s != Figure9b rows digest %s",
					check.rec.Digest, runs[0].rec.Digest))
			}
		}
	}
	var walls, rss, rates, setupS []float64
	for _, c := range runs {
		if c.ok() && c.rec.Digest != runs[0].rec.Digest {
			c.failed = append(c.failed, fmt.Sprintf("digest %s != first run's %s", c.rec.Digest, runs[0].rec.Digest))
		}
		if !c.ok() {
			continue
		}
		walls = append(walls, c.rec.WallS)
		rss = append(rss, c.rssMB)
		d := c.rec.Delivered
		if delivered >= 0 {
			d = delivered
		}
		rates = append(rates, float64(d)/c.rec.WallS)
	}
	for _, c := range setups {
		if c.ok() {
			setupS = append(setupS, c.rec.SetupS)
		}
	}
	vals := map[string]float64{
		"wall_s":               median(walls),
		"setup_s":              median(setupS),
		"peak_rss_mb":          median(rss),
		"delivered_pkts_per_s": median(rates),
		"pass_frac":            1 - float64(p.failedCount())/float64(len(p.all)),
	}
	m := map[string]value{}
	for _, e := range endToEnd {
		m[e.Name] = value{vals[e.Name], e.Unit}
	}
	return m
}

// failedCount is the number of children that failed a gate.
func (p *parent) failedCount() int {
	var n int
	for _, c := range p.all {
		if !c.ok() {
			n++
		}
	}
	return n
}

// tracedRuns runs a profiled reference through the public entry point
// once, then traced runs until the measuring time is spent, and gates
// each traced run's fidelity against the reference.
func (p *parent) tracedRuns(measure time.Duration) map[string]value {
	ref := p.spawn(kindRun, true)
	refs := []*childResult{ref}
	// timed is the profiled reference whose Run wall time, less its
	// engine time and the traced set-up, is epnet.finish_s.
	timed := ref
	if p.name == "harness-fig9b" {
		timed = p.spawn(kindCheck, true)
		refs = append(refs, timed)
		if timed.ok() && ref.ok() && timed.rec.Digest != ref.rec.Digest {
			timed.failed = append(timed.failed, "check rows differ from Figure9b's")
		}
	}
	refsOK := ref.ok() && timed.ok()
	var traced []*childResult
	for len(traced) == 0 || (time.Since(p.start) < measure && p.fits(kindTraced)) {
		c := p.spawn(kindTraced, false)
		traced = append(traced, c)
		if !c.ok() || !refsOK {
			break
		}
		c.failed = append(c.failed, fidelityErrs(timed.rec.Outs, c.rec.Outs)...)
		if c.rec.Digest != "" && c.rec.Digest != ref.rec.Digest {
			c.failed = append(c.failed, fmt.Sprintf("traced digest %s != untraced %s", c.rec.Digest, ref.rec.Digest))
		}
	}
	perMetric := map[string][]float64{}
	for _, c := range traced {
		if !c.ok() || !refsOK {
			continue
		}
		l := c.rec.Layers
		runWall, engine := timed.rec.WallS, timed.rec.EngineS
		switch p.name {
		case "harness-fig9b":
			runWall = 0
			for _, o := range timed.rec.Outs {
				runWall += o.WallS
			}
		case "chaos-traced":
			// The drill's traced run is itself a profiled epnet.Run.
			runWall, engine = c.rec.Outs[0].WallS, c.rec.EngineS
		}
		l["epnet.finish_s"] = runWall - engine - c.rec.SetupInRunS
		for k, v := range l {
			perMetric[k] = append(perMetric[k], v)
		}
	}
	m := map[string]value{}
	for _, lm := range perLayer {
		m[lm.Name] = value{median(perMetric[lm.Name]), lm.Unit}
	}
	return m
}

// stamp identifies the host and code of every output record.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	SourceHash string `json:"source_sha256"`
}

func newStamp(name string, seed int64, traced bool, root string) stamp {
	return stamp{
		Workload: name, Seed: seed, Traced: traced,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(root),
		SourceHash: sourceHash(root),
	}
}

// gitCommit reads HEAD from the checkout's .git directory, or reports
// "none" when the checkout is not a git repository.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sha, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceHash digests the checkout's Go sources, module files and JSON
// inputs, so a record names the code it measured even outside git.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		ext := filepath.Ext(path)
		if ext != ".go" && ext != ".json" && ext != ".mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
