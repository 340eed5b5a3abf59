package exper

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"nscc/internal/bayes"
	"nscc/internal/core"
	"nscc/internal/faults"
	"nscc/internal/ga"
	"nscc/internal/ga/functions"
	"nscc/internal/graph"
	"nscc/internal/metrics"
	"nscc/internal/netsim"
	"nscc/internal/sim"
	"nscc/internal/tseries"
)

// Golden telemetry fingerprints.
//
// The sweep pins above hash result rows only; these hash the complete
// result struct of single runs plus their whole metrics.Telemetry block
// (per-task accounting, network aggregates, staleness, violations, race
// classification, windowed series). The runs switch on every optional
// layer of the simulated cluster at once — loader, fault plan, reliable
// delivery, read timeout, race checker, series — so a change to how the
// cluster is assembled or how its telemetry is collected shows up as a
// mismatch. Regenerate only after an intentional result-affecting change:
//
//	go test ./internal/exper -run TestGoldenTelemetry -v -update-goldens
//
// Provenance: the Bayes and graph pins date from their first capture.
// The three GA pins were re-pinned once, deliberately, when GA mutation
// moved to geometric gap sampling (same flip law, different GA draw
// sequence).
const (
	goldenTelemetryGABus           = "95e213cb08f670e010c3f1b7f5df0280a2b61df2e2febbb369e24d5cecb54f3e"
	goldenTelemetryGABusUnreliable = "9c4e6882d65aab25e1bb8f6f6b631d4b2deb8edbbc876eb9712571a08f70d768"
	goldenTelemetryGAHier          = "a8eb234f4bc5e20289fb0ed5691f004bb1a6fe8d329a6f81c7928a5bd5831271"
	goldenTelemetryBayes           = "20205f9207a2143f3e1d04146726ef63370e52e3313beb41594f06568121e1ec"
	goldenTelemetryGraph           = "94c6581e75e4e904f1b7b26e19b30a47a0e64bc9558cd390ebead083fad4b9f0"
)

// telemetryHash fingerprints a run result and its telemetry block. The
// result is serialized with its Telemetry pointer cleared so the block
// is hashed once, by value.
func telemetryHash(t *testing.T, res interface{}, tel *metrics.Telemetry) string {
	t.Helper()
	if tel == nil {
		t.Fatal("run returned no telemetry")
	}
	h := sha256.New()
	for _, v := range []interface{}{res, tel} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func checkTelemetryGolden(t *testing.T, name, got, want string) {
	t.Helper()
	if *updateGoldens {
		t.Logf("%s = %q", name, got)
		return
	}
	if got != want {
		t.Errorf("%s fingerprint changed:\n got  %s\n want %s", name, got, want)
	}
}

func smokePlan(t *testing.T) *faults.Plan {
	t.Helper()
	plan, err := faults.LoadFile("../faults/testdata/smoke-plan.json")
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestGoldenTelemetry(t *testing.T) {
	gaCfg := func() ga.IslandConfig {
		return ga.IslandConfig{
			Fn: functions.F1, Par: ga.DeJongParams(), P: 4,
			Mode: core.NonStrict, Age: 3,
			FixedGens: 30, MinGens: 30, MaxGens: 120, Target: 1,
			Seed: 11, Calib: ga.DefaultCalibration(),
			Reliable:    true,
			ReadTimeout: 50 * sim.Millisecond,
			RaceCheck:   true,
			Series:      tseries.NewSet(tseries.DefaultWindow),
		}
	}

	checkGA := func(t *testing.T, cfg ga.IslandConfig, name, want string) {
		t.Helper()
		res, err := ga.RunIsland(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tel := res.Telemetry
		res.Telemetry = nil
		checkTelemetryGolden(t, name, telemetryHash(t, res, tel), want)
	}
	gaBusCfg := func(t *testing.T) ga.IslandConfig {
		cfg := gaCfg()
		cfg.LoaderBps = 2e6
		cfg.Faults = smokePlan(t)
		return cfg
	}

	t.Run("ga-bus", func(t *testing.T) {
		checkGA(t, gaBusCfg(t), "goldenTelemetryGABus", goldenTelemetryGABus)
	})

	// The same run over the unreliable transport: the plan's duplicates
	// reach the application, so each one must take its own share of the
	// pooled message and of the DSM update it carries.
	t.Run("ga-bus-unreliable", func(t *testing.T) {
		cfg := gaBusCfg(t)
		cfg.Reliable = false
		checkGA(t, cfg, "goldenTelemetryGABusUnreliable", goldenTelemetryGABusUnreliable)
	})

	t.Run("ga-hier", func(t *testing.T) {
		cfg := gaCfg()
		cfg.P = 12
		cfg.Topology = ga.GossipRandom
		h := netsim.DefaultHierConfig()
		h.RackSize = 4
		cfg.Hier = &h
		checkGA(t, cfg, "goldenTelemetryGAHier", goldenTelemetryGAHier)
	})

	t.Run("bayes-switch", func(t *testing.T) {
		sw := netsim.DefaultSwitchConfig()
		bn := bayes.Figure1()
		res, err := bayes.RunParallel(bayes.ParallelConfig{
			Net:   bn,
			Query: bayes.Query{Node: 3, State: 1, Evidence: map[int]int{0: 1}},
			P:     2, Mode: core.NonStrict, Age: 5,
			Precision: 0.05, MaxIters: 50000,
			Seed: 17, Calib: bayes.DefaultCalibration(),
			SwitchCfg:   &sw,
			Faults:      smokePlan(t),
			Reliable:    true,
			ReadTimeout: 50 * sim.Millisecond,
			RaceCheck:   true,
			Series:      tseries.NewSet(tseries.DefaultWindow),
		})
		if err != nil {
			t.Fatal(err)
		}
		tel := res.Telemetry
		res.Telemetry = nil
		checkTelemetryGolden(t, "goldenTelemetryBayes", telemetryHash(t, res, tel), goldenTelemetryBayes)
	})

	t.Run("graph-bus", func(t *testing.T) {
		g, err := graph.ParseTopoSpec("random:n=40,m=80,seed=2")
		if err != nil {
			t.Fatal(err)
		}
		res, err := graph.Run(graph.Config{
			G: g, Algo: graph.PageRank, P: 4,
			Mode: core.NonStrict, Age: 2,
			MaxSupersteps: 4000,
			Seed:          5, Calib: graph.DefaultCalibration(),
			Faults:      smokePlan(t),
			Reliable:    true,
			ReadTimeout: 50 * sim.Millisecond,
			RaceCheck:   true,
			Series:      tseries.NewSet(tseries.DefaultWindow),
		})
		if err != nil {
			t.Fatal(err)
		}
		tel := res.Telemetry
		res.Telemetry = nil
		checkTelemetryGolden(t, "goldenTelemetryGraph", telemetryHash(t, res, tel), goldenTelemetryGraph)
	})
}
