package traffic

import (
	"math/rand"

	"epnet/internal/link"
	"epnet/internal/sim"
)

// Incast generates synchronized fan-in bursts — the classic datacenter
// incast pattern (partition/aggregate request fan-out whose responses
// collide at the aggregator). Every burst picks one random victim
// destination and Fanin random sources, each of which sends MsgBytes
// to it simultaneously; bursts arrive with exponentially distributed
// gaps sized so the victim's ingress averages Load of line rate.
//
// The victim changes every burst, so over time the pattern stresses
// every link's ability to reactivate quickly: an energy-proportional
// fabric that detuned the victim's links during the lull pays the
// reactivation penalty exactly when the burst lands.
type Incast struct {
	MsgBytes int
	// Fanin is the number of simultaneous senders per burst (clamped
	// to the host count).
	Fanin int
	// Load is the victim's mean ingress utilization: burst gaps are
	// sized so Fanin*MsgBytes arrives per Load-scaled line-rate
	// interval.
	Load     float64
	LineRate link.Rate
	Seed     int64
}

// Start implements Workload.
func (p *Incast) Start(e *sim.Engine, tgt Target, horizon sim.Time) {
	n := tgt.NumHosts()
	fanin := min(max(p.Fanin, 1), n-1)
	meanGapSec := float64(p.MsgBytes*fanin*8) / (p.Load * float64(p.LineRate))
	// One stream draws the start phase, each burst's victim, its
	// senders and the next gap.
	rng := rand.New(rand.NewSource(p.Seed))
	loop(e, horizon, startPhase(rng, meanGapSec), func() sim.Time {
		dst := rng.Intn(n)
		for i := 0; i < fanin; i++ {
			tgt.InjectMessage(notSelf(rng.Intn(n), dst, n), dst, p.MsgBytes)
		}
		return expGap(rng, meanGapSec)
	})
}
