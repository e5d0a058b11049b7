package epnet

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestRunWithFaultSchedule executes a deterministic schedule covering
// every fault verb and checks the stats surfaced in Result.
func TestRunWithFaultSchedule(t *testing.T) {
	cfg := fastCfg()
	// 4-ary 2-flat: ports 4-6 on each switch are inter-switch links.
	cfg.Faults = "50us fail-link s0p4; 120us degrade-link s1p5 10;" +
		" 200us fail-switch 3; 250us repair-link s0p4;" +
		" 300us repair-switch 3; 350us restore-link s1p5"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// fail-switch 3 downs its 3 incident links but only counts as a
	// switch failure; the explicit fail-link is the single link failure.
	f := res.Faults
	if f.LinkFailures != 1 || f.LinkRepairs != 1 {
		t.Errorf("link failures/repairs = %d/%d, want 1/1", f.LinkFailures, f.LinkRepairs)
	}
	if f.SwitchFailures != 1 || f.SwitchRepairs != 1 {
		t.Errorf("switch failures/repairs = %d/%d, want 1/1", f.SwitchFailures, f.SwitchRepairs)
	}
	if f.LaneDegradations != 1 || f.LaneRestores != 1 {
		t.Errorf("degradations/restores = %d/%d, want 1/1", f.LaneDegradations, f.LaneRestores)
	}
	if res.DeliveredFraction <= 0 || res.DeliveredFraction > 1 {
		t.Errorf("delivered fraction = %v", res.DeliveredFraction)
	}
	if res.DroppedPackets == 0 {
		t.Error("switch crash mid-run dropped nothing")
	}
	if res.DroppedPackets > 0 && res.DroppedBytes == 0 {
		t.Error("dropped packets but no dropped bytes")
	}
}

// TestRunFaultScheduleRejected checks schedule errors surface as typed
// config field errors from Run, not panics deep in the engine.
func TestRunFaultScheduleRejected(t *testing.T) {
	cfg := fastCfg()
	cfg.Faults = "50us fail-link s0p99" // no such inter-switch port
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("schedule with bad target accepted")
	}
	var fe *ConfigFieldError
	if !errors.As(err, &fe) || fe.Field != "Faults" {
		t.Errorf("err = %v, want ConfigFieldError on Faults", err)
	}
}

// TestRunFaultRateDeterministic runs the same seeded random-fault
// config twice and expects identical results, the property the
// resilience grids rely on.
func TestRunFaultRateDeterministic(t *testing.T) {
	cfg := fastCfg()
	cfg.FaultRate = 2.0
	cfg.FaultMTTR = 50 * time.Microsecond
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
	if a.Faults.Total() == 0 {
		t.Error("fault rate 2/ms over 500us produced no faults")
	}

	cfg.Seed = 99
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Faults, c.Faults) && a.MeanLatency == c.MeanLatency {
		t.Error("different seed produced an identical run")
	}
}

// TestRunGridFaultsParallelMatchesSerial checks that worker count does
// not change results even with random faults active.
func TestRunGridFaultsParallelMatchesSerial(t *testing.T) {
	var cfgs []Config
	for _, rate := range []float64{0, 0.5, 2.0} {
		cfg := fastCfg()
		cfg.FaultRate = rate
		cfgs = append(cfgs, cfg)
	}
	serial, err := RunGrid(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunGrid(cfgs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("parallel grid differs from serial grid")
	}
	if serial[0].Faults.Total() != 0 {
		t.Errorf("rate 0 produced faults: %+v", serial[0].Faults)
	}
}

// TestRunContextCanceled: a canceled context stops the run at the next
// epoch boundary with a context error, not a partial Result.
func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, fastCfg())
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}

	if _, err := RunGridContext(ctx, []Config{fastCfg()}, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("grid err = %v, want context.Canceled", err)
	}
}

// TestRunContextBackgroundMatchesRun: the context-free wrapper and an
// un-cancelable context produce identical results.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	cfg := fastCfg()
	cfg.FaultRate = 0.5
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("RunContext(Background) differs from Run")
	}
}
