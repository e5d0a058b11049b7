// Command epsim runs one energy-proportional datacenter network
// simulation and prints its measurements.
//
// Examples:
//
//	epsim -workload search -policy halve-double -independent
//	epsim -k 15 -n 3 -c 15 -workload uniform -duration 5ms
//	epsim -policy baseline -workload advert
//	epsim -scenario diurnal
//	epsim -scenario ops/monday.json -check
//
// The config flags come from internal/cli, which binds one per tagged
// epnet.Config field (including the single-run -power-trace,
// -attribution and -profile); epsim adds only its report controls
// (-json, -hist, -v) and the -check lint mode, which validates a config
// or scenario without running it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"epnet"
	"epnet/internal/cli"
)

func main() {
	var loader cli.Loader
	loader.Bind(flag.CommandLine, epnet.DefaultConfig())

	jsonOut := flag.Bool("json", false, "emit the full result as JSON")
	hist := flag.Bool("hist", false, "print the packet latency histogram")
	check := flag.Bool("check", false, "validate the config (and -scenario, if given) and exit without running")
	listScenarios := flag.Bool("list-scenarios", false, "print the embedded scenario library names and exit")
	verbose := flag.Bool("v", false, "print the shard partition (cut quality, lookahead range) at startup")
	flag.Parse()

	if *listScenarios {
		for _, name := range epnet.ScenarioNames() {
			fmt.Println(name)
		}
		return
	}

	cfg, err := loader.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "epsim:", err)
		os.Exit(1)
	}
	if cfg.TraceOut != "" && cfg.Shards == 0 {
		// Auto-sharding (Shards == 0) resolves to the serial engine when
		// packet tracing is on — say so instead of silently running
		// serial. An explicit -shards > 1 with -trace-out is rejected by
		// Validate with a ConfigFieldError.
		fmt.Fprintln(os.Stderr, "epsim: -trace-out needs the serial engine; running with shards=1")
	}

	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "epsim:", err)
		os.Exit(1)
	}
	if *check {
		fmt.Printf("config ok : %s k=%d n=%d c=%d workload=%s policy=%s duration=%v\n",
			cfg.Topology, cfg.K, cfg.N, cfg.C, cfg.Workload, cfg.Policy, cfg.Duration)
		if s := cfg.Scenario; s != nil {
			fmt.Printf("scenario  : %q — %d phases, total %v\n", s.Name, len(s.Phases), s.TotalDuration())
			for _, ph := range s.Phases {
				traffic := "(none)"
				if len(ph.Traffic) > 0 {
					names := make([]string, len(ph.Traffic))
					for i, tr := range ph.Traffic {
						names[i] = tr.Workload
					}
					traffic = names[0]
					for _, nm := range names[1:] {
						traffic += "+" + nm
					}
				}
				fmt.Printf("  %-16s %-10v traffic=%s policy-switch=%v chaos=%v\n",
					ph.Name, ph.Duration, traffic, ph.Policy != nil, ph.Chaos != nil)
			}
		}
		return
	}
	if *verbose {
		part, err := epnet.Partition(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "epsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "epsim: %v\n", part)
		if m := part.Lookahead; len(m) > 1 && len(m) <= 8 {
			fmt.Fprintln(os.Stderr, "epsim: lookahead matrix (rows=src shard):")
			for i, row := range m {
				fmt.Fprintf(os.Stderr, "epsim:   %d:", i)
				for _, v := range row {
					if v < 0 {
						fmt.Fprint(os.Stderr, "     -")
						continue
					}
					fmt.Fprintf(os.Stderr, " %v", v)
				}
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	// SIGINT/SIGTERM cancel the run cooperatively at the next epoch
	// boundary: the run flushes every output it opened (-metrics-out,
	// -profile-out, -flows-out, ...) before returning, and the inspector
	// is shut down so in-flight scrapes finish cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	res, err := epnet.RunContext(ctx, cfg)
	stop()
	if insp := cfg.Inspector; insp != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if serr := insp.Shutdown(sctx); serr != nil {
			fmt.Fprintln(os.Stderr, "epsim:", serr)
		}
		cancel()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "epsim:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "epsim:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("network   : %s k=%d n=%d c=%d — %d hosts, %d switches, %d channels\n",
		cfg.Topology, cfg.K, cfg.N, cfg.C, res.Hosts, res.Switches, res.Channels)
	fmt.Printf("workload  : %s (avg util measured %.2f%%)\n", cfg.Workload, res.AvgUtil*100)
	fmt.Printf("policy    : %s target=%.0f%% paired=%v reactivation=%v epoch=%v dyntopo=%v\n",
		cfg.Policy, cfg.TargetUtil*100, !cfg.Independent, cfg.Reactivation, cfg.Epoch, cfg.DynTopo)
	fmt.Printf("latency   : mean=%v p50=%v p99=%v max=%v (%d packets)\n",
		res.MeanLatency, res.P50Latency, res.P99Latency, res.MaxLatency, res.Packets)
	fmt.Printf("power     : measured-profile=%.1f%%  ideal-channels=%.1f%%  (ideal bound=%.1f%%)\n",
		res.RelPowerMeasured*100, res.RelPowerIdeal*100, res.AvgUtil*100)

	rates := make([]float64, 0, len(res.RateShare))
	for r := range res.RateShare {
		rates = append(rates, r)
	}
	sort.Float64s(rates)
	fmt.Printf("rate share:")
	for _, r := range rates {
		fmt.Printf("  %g:%.1f%%", r, res.RateShare[r]*100)
	}
	if res.OffShare > 0 {
		fmt.Printf("  off:%.1f%%", res.OffShare*100)
	}
	fmt.Println()
	fmt.Printf("traffic   : injected=%d delivered=%d backlog=%dB reconfigs=%d dyn-transitions=%d\n",
		res.InjectedPackets, res.DeliveredPackets, res.BacklogBytes,
		res.Reconfigurations, res.DynTransitions)
	if res.Faults.Total() > 0 || res.DroppedPackets > 0 {
		fmt.Printf("faults    : link-fail=%d link-repair=%d sw-fail=%d sw-repair=%d degrade=%d restore=%d\n",
			res.Faults.LinkFailures, res.Faults.LinkRepairs,
			res.Faults.SwitchFailures, res.Faults.SwitchRepairs,
			res.Faults.LaneDegradations, res.Faults.LaneRestores)
		fmt.Printf("delivery  : %.3f%% dropped=%d (%dB)\n",
			res.DeliveredFraction*100, res.DroppedPackets, res.DroppedBytes)
	}
	fmt.Printf("asymmetry : %.2f  estimated power: %.0f W (%.1f J over the window)\n",
		res.Asymmetry, res.EstimatedWatts, res.EnergyJoules)
	if len(res.PhaseScores) > 0 {
		fmt.Println("scorecard (per phase):")
		for _, ps := range res.PhaseScores {
			fmt.Printf("  %-16s %9v..%-9v delivered=%-9d frac=%6.2f%% mean=%-10v p99=%-10v util=%5.1f%% reconfigs=%-4d faults=%d\n",
				ps.Phase, ps.Start, ps.End, ps.DeliveredPackets,
				ps.DeliveredFraction*100, ps.MeanLatency, ps.P99Latency,
				ps.AvgUtil*100, ps.Reconfigurations, ps.FaultEvents)
		}
	}
	if len(res.Attribution) > 0 {
		top := make([]epnet.LinkAttribution, len(res.Attribution))
		copy(top, res.Attribution)
		sort.Slice(top, func(i, j int) bool {
			if top[i].EnergyJoules != top[j].EnergyJoules {
				return top[i].EnergyJoules > top[j].EnergyJoules
			}
			return top[i].Link < top[j].Link
		})
		limit := 10
		if len(top) < limit {
			limit = len(top)
		}
		fmt.Printf("attribution (top %d of %d channels by energy):\n", limit, len(top))
		for _, la := range top[:limit] {
			fmt.Printf("  %-16s %-10s util=%5.1f%% relpower=%5.1f%% energy=%.3f J pkts=%d drops=%d\n",
				la.Link, la.Class, la.Utilization*100, la.RelPower*100,
				la.EnergyJoules, la.Packets, la.Drops)
		}
	}
	if *hist && len(res.LatencyCDF) > 0 {
		fmt.Println("latency histogram (cumulative):")
		var cum int64
		maxCount := res.Packets
		for _, b := range res.LatencyCDF {
			cum += b.Count
			frac := float64(cum) / float64(maxCount)
			fmt.Printf("  <= %-12v %6.1f%%  %s\n", b.Upper, frac*100, bars(frac, 50))
		}
	}
	if len(res.PowerTrace) > 0 {
		fmt.Println("power trace (measured profile vs offered load):")
		for _, s := range res.PowerTrace {
			fmt.Printf("  %-10v power %5.1f%% %-30s load %5.1f%% %s\n",
				s.At, s.Measured*100, bars(s.Measured, 30),
				s.Util*100, bars(s.Util, 30))
		}
	}
	if res.FlowTrace != nil {
		if err := res.FlowTrace.WriteReport(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "epsim:", err)
			os.Exit(1)
		}
	}
	if res.Profile != nil {
		if err := res.Profile.WriteReport(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "epsim:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("wall time : %v\n", elapsed.Round(time.Millisecond))
}

// bars renders a simple proportional bar.
func bars(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
