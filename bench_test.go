package erapid

// Benchmark harness: the ablations of EXPERIMENTS.md, each a knob the
// paper fixes or names as future work, and the telemetry overhead gate.
// The paper's own tables and figures are not benchmarks: `erapid tables
// [-designspace]` and `erapid sweep` generate them, and `erapid verify`
// checks the paper's claims against them.
//
// The ablations use a shortened measurement schedule so the whole suite
// finishes in seconds; shapes (who wins, by what factor) are unaffected.

import "testing"

// benchConfig is the 64-node paper system with a shortened schedule.
func benchConfig(mode Mode) Config {
	cfg := DefaultConfig(mode)
	cfg.WarmupCycles = 12000
	cfg.MeasureCycles = 6000
	cfg.DrainLimitCycles = 60000
	return cfg
}

func runPoint(b *testing.B, mode Mode, pattern string, load float64) *Result {
	b.Helper()
	cfg := benchConfig(mode)
	cfg.Pattern = pattern
	cfg.Load = load
	res, err := Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationMaxHold sweeps the DBR re-allocation cap: the
// complement-traffic gain grows with the number of channels a hot flow
// may hold (the paper's plateau corresponds to 4).
func BenchmarkAblationMaxHold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := runPoint(b, NPNB, Complement, 0.9)
		for _, hold := range []int{1, 2, 4, 7} {
			cfg := benchConfig(NPB)
			cfg.Pattern = Complement
			cfg.Load = 0.9
			cfg.MaxHold = hold
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.Throughput/base.Throughput, "thr-gain:hold"+itoa(hold))
			}
		}
	}
}

// BenchmarkAblationWindow sweeps the reconfiguration window R_w around
// the paper's 2000-cycle choice.
func BenchmarkAblationWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, window := range []uint64{500, 2000, 8000} {
			cfg := benchConfig(PB)
			cfg.Pattern = Complement
			cfg.Load = 0.7
			cfg.Window = window
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.Throughput, "thr:Rw"+utoa(window))
			}
		}
	}
}

// BenchmarkTelemetryOverhead measures the cost of the telemetry layer on
// the hot path. "off" is the baseline (no sink attached — must stay at
// 0 allocs/op); "on" runs the full
// per-window collector plus the in-memory event recorder, the worst-case
// always-on configuration. The gap between the two is the observability
// tax reported in README.md.
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, enable bool) {
		cfg := DefaultConfig(PB)
		cfg.Pattern = Uniform
		cfg.Load = 0.5
		s, err := NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if enable {
			s.EnableTelemetry(TelemetryConfig{})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
		b.StopTimer()
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)/sec, "cycles/s")
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

func itoa(n int) string { return utoa(uint64(n)) }

func utoa(n uint64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationPowerLevels tests the paper's future-work hypothesis
// ("more power levels and corresponding bit rates can further improve
// the performance as power scaling can follow the traffic pattern more
// accurately"): the P-B network with 2, 3, 5 and 7 operating points at
// a mid load where DPM is active.
func BenchmarkAblationPowerLevels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, levels := range []int{2, 3, 5, 7} {
			cfg := benchConfig(PB)
			cfg.Pattern = Uniform
			cfg.Load = 0.4
			cfg.PowerLevels = levels
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.PowerDynamicMW, "mW:levels"+itoa(levels))
				b.ReportMetric(res.Throughput*1000, "kthr:levels"+itoa(levels))
			}
		}
	}
}

// BenchmarkAblationPortRadius tests the paper's cost-reduction future
// work ("cost-effective design alternatives that provide limited
// flexibility for reconfigurability may reduce performance, but lower
// the cost"): complement-traffic gain versus the laser-array port
// radius (0 = full array).
func BenchmarkAblationPortRadius(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := runPoint(b, NPNB, Complement, 0.9)
		for _, radius := range []int{0, 1, 2, 3} {
			cfg := benchConfig(NPB)
			cfg.Pattern = Complement
			cfg.Load = 0.9
			cfg.PortRadius = radius
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.Throughput/base.Throughput, "thr-gain:radius"+itoa(radius))
			}
		}
	}
}

// BenchmarkAblationBurstiness measures how burstiness interacts with the
// window-based reconfiguration: the same mean load injected smoothly
// (Bernoulli) versus in bursts shorter and longer than R_w.
func BenchmarkAblationBurstiness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, burst := range []float64{0, 500, 4000} {
			cfg := benchConfig(PB)
			cfg.Pattern = Uniform
			cfg.Load = 0.5
			cfg.BurstLength = burst
			cfg.BurstDuty = 0.25
			if burst == 0 {
				cfg.BurstDuty = 0
			}
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				name := "bernoulli"
				if burst > 0 {
					name = "burst" + itoa(int(burst))
				}
				b.ReportMetric(res.P99Latency, "p99:"+name)
				b.ReportMetric(res.PowerDynamicMW, "mW:"+name)
			}
		}
	}
}

// BenchmarkAblationPacketSize sweeps the packet size (the paper fixes
// 64 B "for most of the runs"): larger packets amortize per-packet
// pipeline costs but hold optical channels longer.
func BenchmarkAblationPacketSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bytes := range []int{32, 64, 128, 256} {
			cfg := benchConfig(PB)
			cfg.Pattern = Uniform
			cfg.Load = 0.5
			cfg.PacketBytes = bytes
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.AvgLatency, "lat:"+itoa(bytes)+"B")
				b.ReportMetric(res.Throughput*float64(bytes)*8/2.5*1000, "Mbps-node:"+itoa(bytes)+"B")
			}
		}
	}
}
