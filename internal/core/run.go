package core

import (
	"context"

	"repro/internal/stats"
)

// Run simulates the configured system through warm-up, measurement and
// drain, and returns the collected metrics. It is RunContext without
// cancellation.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Runner.RunContext on a throw-away Runner.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return new(Runner).RunContext(ctx, cfg)
}

// Run executes the measurement methodology of Sec. 4 on an assembled
// system: warm up under load, label packets injected during the
// measurement interval, and run until every labeled packet is delivered
// (or the drain limit is reached).
func (s *System) Run() *Result {
	res, _ := s.RunContext(context.Background())
	return res
}

// RunContext is Run with cooperative cancellation checked once per
// reconfiguration window (see Runner.RunContext). On cancellation it
// still tears the system down cleanly and returns the metrics of the
// completed portion alongside a *CancelledError.
func (s *System) RunContext(ctx context.Context) (*Result, error) {
	limit := s.cfg.WarmupCycles + s.cfg.MeasureCycles + s.cfg.DrainLimitCycles
	window := s.cfg.Window
	truncated := false
	var now uint64
	var cancelled error
	for {
		// Step in batches that run to the next reconfiguration-window
		// boundary (or the cycle limit); StepN checks measurement Done
		// after each cycle.
		n := window - s.nextCycle%window
		if rem := limit + 1 - s.nextCycle; rem < n {
			n = rem
		}
		now = s.StepN(n)
		if s.meas.Phase() == stats.Done {
			break
		}
		if now >= limit {
			truncated = true
			break
		}
		if (now+1)%window == 0 {
			// Window boundary: the only point cancellation takes effect, so
			// a cancelled run's per-window telemetry is an exact prefix of
			// the uncancelled run's.
			if err := ctx.Err(); err != nil {
				cancelled = err
				break
			}
		}
	}
	res := s.result(now, truncated)
	if cancelled != nil {
		return res, &CancelledError{Window: (now + 1) / window, Cycle: now + 1, Cause: cancelled}
	}
	return res, nil
}

func (s *System) result(cycles uint64, truncated bool) *Result {
	cfg := s.cfg
	m := s.meas
	meter := s.fab.Meter()
	r := &Result{
		Mode:     cfg.Mode,
		Pattern:  cfg.Pattern,
		Policy:   cfg.PolicyName(),
		Load:     cfg.Load,
		Rate:     cfg.Rate(),
		Capacity: cfg.Capacity(),

		Throughput:  m.Throughput(s.top.TotalNodes()),
		OfferedLoad: m.OfferedLoad(s.top.TotalNodes()),

		AvgLatency:    m.Latency.Mean(),
		P50Latency:    m.Latency.Quantile(0.50),
		P95Latency:    m.Latency.Quantile(0.95),
		P99Latency:    m.Latency.Quantile(0.99),
		MaxLatency:    m.Latency.Max(),
		AvgNetLatency: m.NetLatency.Mean(),
		Samples:       m.Latency.N(),

		PowerDynamicMW: meter.AvgDynamicMW(),
		PowerSupplyMW:  meter.AvgSupplyMW(),

		Ctrl:  s.ctl.Counters(),
		Wakes: s.fab.Wakes(),

		Cycles:    cycles,
		Truncated: truncated,
		Injected:  s.injected,
		Delivered: s.delivered,

		DroppedByFault: s.droppedByFault,
	}
	r.DeliveredFraction = 1
	if li := m.LabeledInjected(); li > 0 {
		r.DeliveredFraction = float64(m.LabeledDelivered()) / float64(li)
	}
	if s.faults != nil {
		r.DegradedWindows = s.faults.DegradedWindows()
		r.Faults = s.faults.Counters()
	}
	if m.DeliveredInMeasure() > 0 {
		bits := float64(m.DeliveredInMeasure()) * float64(cfg.PacketBytes*8)
		r.EnergyPerBitPJ = meter.DynamicEnergyNJ() * 1e3 / bits
	}
	for _, nic := range s.nics {
		if q := nic.QueueLen(); q > r.MaxSourceQueue {
			r.MaxSourceQueue = q
		}
	}
	r.Fairness = jain(s.deliveredPerNode)
	return r
}

// jain computes Jain's fairness index over per-node counts.
func jain(xs []uint64) float64 {
	var sum, sum2 float64
	for _, x := range xs {
		v := float64(x)
		sum += v
		sum2 += float64(v * v)
	}
	if sum2 == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sum2)
}
