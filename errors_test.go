package epnet

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"epnet/internal/traffic"
)

// TestConfigErrorsCarryFieldNames drives every validation branch and
// checks the returned error (a) matches ErrInvalidConfig, (b) is a
// *ConfigFieldError naming exactly the offending field, and (c) for
// enum fields also matches the dedicated sentinel.
// A topology of exactly sim.MaxLaneID hosts + switches fits the
// engine's lane space; one more host per switch does not.
func TestConfigLaneLimitBoundary(t *testing.T) {
	fits := Config{K: 349525, N: 2, C: 2, Duration: time.Millisecond} // 3 x 349525 = 2^20-1
	if err := fits.Validate(); err != nil {
		t.Errorf("config at the lane limit rejected: %v", err)
	}
	over := fits
	over.C = 3
	if err := over.Validate(); err == nil {
		t.Error("config past the lane limit accepted")
	}
}

func TestConfigErrorsCarryFieldNames(t *testing.T) {
	base := func() Config { return Config{K: 4, N: 2, C: 4, Duration: time.Millisecond} }
	cases := []struct {
		field    string
		mut      func(*Config)
		sentinel error // optional enum sentinel
	}{
		{"Topology", func(c *Config) { c.Topology = "ring" }, ErrUnknownTopology},
		{"DynTopo", func(c *Config) { c.Topology = TopoFatTree; c.DynTopo = true }, nil},
		{"K", func(c *Config) { c.K = 1 }, nil},
		{"K", func(c *Config) { c.Topology = TopoClos3; c.K = 5 }, nil},
		{"C", func(c *Config) { c.C = 0 }, nil},
		{"N", func(c *Config) { c.N = 1 }, nil},
		// Hosts + switches past the engine's lane space, including
		// sizes whose naive product would overflow.
		{"N", func(c *Config) { c.K, c.N, c.C = 8, 7, 8 }, nil},
		{"N", func(c *Config) { c.K, c.N = 2, math.MaxInt }, nil},
		{"N", func(c *Config) { c.K, c.N = math.MaxInt, 3 }, nil},
		{"N", func(c *Config) { c.C = math.MaxInt }, nil},
		{"K", func(c *Config) { c.Topology = TopoFatTree; c.K, c.C = 1<<20, 1 }, nil},
		{"K", func(c *Config) { c.Topology = TopoFatTree; c.K, c.C = math.MaxInt, math.MaxInt }, nil},
		{"K", func(c *Config) { c.Topology = TopoClos3; c.K = 256 }, nil},
		{"K", func(c *Config) { c.Topology = TopoClos3; c.K = math.MaxInt - 1 }, nil},
		{"TracePath", func(c *Config) { c.Workload = WorkloadTrace }, nil},
		{"Workload", func(c *Config) { c.Workload = "netflix" }, ErrUnknownWorkload},
		{"Policy", func(c *Config) { c.Policy = "magic" }, ErrUnknownPolicy},
		{"Routing", func(c *Config) { c.Routing = "static" }, ErrUnknownRouting},
		{"Routing", func(c *Config) { c.Topology = TopoFatTree; c.Routing = RoutingDOR }, nil},
		{"FailLinks", func(c *Config) { c.FailLinks = -1 }, nil},
		{"FailLinks", func(c *Config) { c.FailLinks = 2; c.Routing = RoutingDOR }, nil},
		{"FailAfter", func(c *Config) { c.FailLinks = 2; c.FailAfter = -time.Microsecond }, nil},
		{"Faults", func(c *Config) { c.Faults = "50us explode s0p1" }, nil},
		{"Faults", func(c *Config) { c.Faults = "50us fail-link s0p1"; c.Routing = RoutingDOR }, nil},
		{"FaultRate", func(c *Config) { c.FaultRate = -1 }, nil},
		{"FaultRate", func(c *Config) { c.FaultRate = 0.5; c.Routing = RoutingDOR }, nil},
		{"FaultMTTR", func(c *Config) { c.FaultRate = 0.5; c.FaultMTTR = -time.Microsecond }, nil},
		{"Load", func(c *Config) { c.Load = 1.0 }, nil},
		// Below traffic.MinLoad a generator's gaps overflow sim.Time.
		{"Load", func(c *Config) { c.Load = 1e-12 }, nil},
		{"Load", func(c *Config) { c.Load = 5e-324 }, nil},
		{"TargetUtil", func(c *Config) { c.TargetUtil = 1.5 }, nil},
		{"Reactivation", func(c *Config) { c.Reactivation = -time.Microsecond }, nil},
		{"Epoch", func(c *Config) { c.Epoch = time.Microsecond; c.Reactivation = 2 * time.Microsecond }, nil},
		{"SampleInterval", func(c *Config) { c.SampleInterval = -time.Microsecond }, nil},
		{"Duration", func(c *Config) { c.Duration = 0 }, nil},
		{"Warmup", func(c *Config) { c.Warmup = -1 }, nil},
		{"MaxPacket", func(c *Config) { c.MaxPacket = 32 }, nil},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: invalid config accepted", tc.field)
			continue
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: error %v does not match ErrInvalidConfig", tc.field, err)
		}
		var fe *ConfigFieldError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v is not a *ConfigFieldError", tc.field, err)
			continue
		}
		if fe.Field != tc.field {
			t.Errorf("error names field %q, want %q (%v)", fe.Field, tc.field, err)
		}
		if !strings.Contains(err.Error(), "Config."+tc.field) {
			t.Errorf("%s: message %q does not name the field", tc.field, err)
		}
		if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
			t.Errorf("%s: error %v does not match its enum sentinel", tc.field, err)
		}
	}
}

// TestConfigErrorSentinelsDistinct makes sure matching one sentinel
// does not accidentally match the others.
func TestConfigErrorSentinelsDistinct(t *testing.T) {
	cfg := Config{K: 4, N: 2, C: 4, Duration: time.Millisecond, Policy: "magic"}
	err := cfg.Validate()
	if !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("err = %v, want ErrUnknownPolicy", err)
	}
	for _, wrong := range []error{ErrUnknownTopology, ErrUnknownWorkload, ErrUnknownRouting} {
		if errors.Is(err, wrong) {
			t.Errorf("policy error matches unrelated sentinel %v", wrong)
		}
	}
}

func TestValidConfigHasNoError(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	cfg.Load = traffic.MinLoad
	if err := cfg.Validate(); err != nil {
		t.Fatalf("load at traffic.MinLoad rejected: %v", err)
	}
}
