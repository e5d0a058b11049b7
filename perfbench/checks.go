package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"epnet"
)

// Correctness gates. Each appends to the record's failures; a run with
// any failure counts as failed in the benchmark's result.

// checkResult applies the conservation law to every run and, on
// fault-free workloads, requires that nothing was dropped.
func checkResult(r *record, res epnet.Result, faults bool) {
	if res.DeliveredPackets+res.DroppedPackets > res.InjectedPackets {
		r.fail("conservation: delivered %d + dropped %d > injected %d",
			res.DeliveredPackets, res.DroppedPackets, res.InjectedPackets)
	}
	if !faults && res.DroppedPackets != 0 {
		r.fail("fault-free run dropped %d packets", res.DroppedPackets)
	}
	if res.DeliveredPackets <= 0 {
		r.fail("run delivered no packets")
	}
}

// checkChaos requires that every flow-trace exemplar and dumped packet
// decomposes exactly into its latency, hop by hop. The drill's fault
// count is recorded (fault.events), not gated: its faults arrive as
// seeded Poisson processes, and a few seeds draw none in the window.
func checkChaos(r *record, res epnet.Result) {
	ft := res.FlowTrace
	if ft == nil || len(ft.Exemplars) == 0 {
		r.fail("flow trace has no exemplars")
		return
	}
	for i := range ft.Exemplars {
		checkFlowPacket(r, &ft.Exemplars[i])
	}
	for i := range ft.Dumps {
		if p := ft.Dumps[i].Packet; p != nil {
			checkFlowPacket(r, p)
		}
	}
}

func checkFlowPacket(r *record, p *epnet.FlowPacket) {
	if got := p.Breakdown.TotalPs(); got != p.LatencyPs {
		r.fail("flow packet %d: components sum to %d ps, latency is %d ps", p.ID, got, p.LatencyPs)
	}
	if p.Truncated {
		return // a capped hop log folds later hops into its last record
	}
	var hops int64
	for _, h := range p.Hops {
		hops += h.Breakdown.TotalPs()
	}
	if hops != p.LatencyPs {
		r.fail("flow packet %d: hops sum to %d ps, latency is %d ps", p.ID, hops, p.LatencyPs)
	}
}

// goldenPath is the repo's captured cmd/experiments output.
const goldenPath = "results/experiments_default.txt"

// goldenFig9b reads the Figure 9b table's rows from the golden capture:
// the lines after the title, its underline and the column header, up to
// the first blank line.
func goldenFig9b(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var rows []string
	state := 0 // 0: before title, 1..2: underline and header, 3: rows
	for sc.Scan() {
		line := sc.Text()
		switch {
		case state == 0:
			if strings.HasPrefix(line, "Figure 9b") {
				state = 1
			}
		case state < 3:
			state++
		case line == "":
			return rows, nil
		default:
			rows = append(rows, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if state < 3 {
		return nil, fmt.Errorf("%s: no Figure 9b table", path)
	}
	return rows, nil
}

// checkGolden compares the harness's rows with the golden table. The
// table was captured at seed 1, so only seed-1 runs are compared.
func checkGolden(r *record, root string, got []string) {
	want, err := goldenFig9b(filepath.Join(root, goldenPath))
	if err != nil {
		r.fail("golden: %v", err)
		return
	}
	if len(got) != len(want) {
		r.fail("golden: %d Figure 9b rows, want %d", len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			r.fail("golden: Figure 9b row %d is %q, want %q", i, got[i], want[i])
		}
	}
}

// fidelityErrs compares the traced (composed) run's simulations with
// epnet.Run's for the same configurations. Per-layer numbers count only
// when the composer did the same simulated work.
func fidelityErrs(ref, traced []outcome) []string {
	if len(ref) != len(traced) {
		return []string{fmt.Sprintf("fidelity: %d traced runs, %d reference runs", len(traced), len(ref))}
	}
	var errs []string
	for i := range ref {
		a, b := ref[i], traced[i]
		if a.Injected != b.Injected || a.Delivered != b.Delivered ||
			a.Reconfigs != b.Reconfigs || a.RelPowerMeasured != b.RelPowerMeasured {
			errs = append(errs, fmt.Sprintf("fidelity: run %d: traced injected/delivered/reconfigs/power %d/%d/%d/%v, Run %d/%d/%d/%v",
				i, b.Injected, b.Delivered, b.Reconfigs, b.RelPowerMeasured,
				a.Injected, a.Delivered, a.Reconfigs, a.RelPowerMeasured))
		}
	}
	return errs
}
