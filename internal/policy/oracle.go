package policy

import "sort"

func init() {
	// Without a profile the oracle degenerates to a pure static policy
	// (hold every level and every holder); core injects the profiled
	// instance when it runs the pre-pass.
	Register("oracle-static", func(p Params) Policy { return NewOracleStatic(p, nil) })
}

// Profile is the aggregate of a profiling pre-pass: per-laser mean
// demand and per-channel mean occupancy, observed under a hold-
// everything policy at the lasers' initial (top) levels so demand is
// never supply-limited.
type Profile struct {
	Boards int
	// OutDemandGbps[s][w][d] is the mean offered demand of board s's
	// laser (w → d) in Gbps (link utilization x line rate at observation
	// time). Negative means the laser was never observed.
	OutDemandGbps [][][]float64
	// OutBuf[s][w][d] is the mean buffer utilization of the same laser.
	OutBuf [][][]float64
	// InLink/InBuf[d][w] are the mean holder-side link/buffer
	// utilizations of board d's incoming channel on wavelength w.
	InLink, InBuf [][]float64
}

// Profiler is the pre-pass vehicle: a hold-everything policy that
// accumulates the window statistics the oracle plans from. It is not
// registered; core constructs it directly for the profiling run.
type Profiler struct {
	p                 Params
	outDemand, outBuf [][]float64
	outN              [][]uint64
	inLink, inBuf     []float64
	inN               []uint64
}

// NewProfiler builds the profiling policy for one board.
func NewProfiler(p Params) *Profiler {
	b := p.Boards
	pr := &Profiler{
		p:         p,
		outDemand: make([][]float64, b),
		outBuf:    make([][]float64, b),
		outN:      make([][]uint64, b),
		inLink:    make([]float64, b),
		inBuf:     make([]float64, b),
		inN:       make([]uint64, b),
	}
	for w := 1; w < b; w++ {
		pr.outDemand[w] = make([]float64, b)
		pr.outBuf[w] = make([]float64, b)
		pr.outN[w] = make([]uint64, b)
	}
	return pr
}

// Name implements Policy.
func (pr *Profiler) Name() string { return "profile" }

// Power holds the current level and accumulates the laser's demand.
func (pr *Profiler) Power(o LinkObs) int {
	w, d := o.Wavelength, o.Dest
	if o.Level > 0 {
		pr.outDemand[w][d] += float64(o.LinkUtil * pr.p.Ladder.Gbps(o.Level))
		pr.outBuf[w][d] += o.BufUtil
		pr.outN[w][d]++
	}
	return o.Level
}

// Bandwidth holds the current assignment and accumulates the incoming
// channel statistics.
func (pr *Profiler) Bandwidth(ctx *BandwidthCtx, obs []ChanObs, assign []int) []int {
	for w := 1; w < len(obs); w++ {
		pr.inLink[w] += obs[w].LinkUtil
		pr.inBuf[w] += obs[w].BufUtil
		pr.inN[w]++
	}
	return assign
}

// BuildProfile averages the accumulated statistics of one profiler per
// board into a Profile.
func BuildProfile(profilers []*Profiler) *Profile {
	b := len(profilers)
	p := &Profile{
		Boards:        b,
		OutDemandGbps: make([][][]float64, b),
		OutBuf:        make([][][]float64, b),
		InLink:        make([][]float64, b),
		InBuf:         make([][]float64, b),
	}
	for s, pr := range profilers {
		p.OutDemandGbps[s] = make([][]float64, b)
		p.OutBuf[s] = make([][]float64, b)
		p.InLink[s] = make([]float64, b)
		p.InBuf[s] = make([]float64, b)
		for w := 1; w < b; w++ {
			p.OutDemandGbps[s][w] = make([]float64, b)
			p.OutBuf[s][w] = make([]float64, b)
			for d := 0; d < b; d++ {
				if n := pr.outN[w][d]; n > 0 {
					p.OutDemandGbps[s][w][d] = pr.outDemand[w][d] / float64(n)
					p.OutBuf[s][w][d] = pr.outBuf[w][d] / float64(n)
				} else {
					p.OutDemandGbps[s][w][d] = -1
					p.OutBuf[s][w][d] = -1
				}
			}
			if n := pr.inN[w]; n > 0 {
				p.InLink[s][w] = pr.inLink[w] / float64(n)
				p.InBuf[s][w] = pr.inBuf[w] / float64(n)
			}
		}
	}
	return p
}

// OracleStatic applies the best fixed allocation computed from a
// profiling pre-pass: each laser runs permanently at the lowest ladder
// level whose line rate covers the profiled demand (with headroom),
// unused lasers stay dark, and the wavelength grants are a fixed map
// that gives profiled-congested flows the channels profiled-idle flows
// never used. It is the "perfect hindsight" bound the adaptive
// policies are judged against: zero reconfiguration transients, but
// blind to anything the profile did not show.
type OracleStatic struct {
	p        Params
	headroom float64
	prof     *Profile
	// fixedLevel[w][d] is the planned level per laser; -1 = no profile
	// data, hold whatever level the laser is at.
	fixedLevel [][]int
	// fixedAssign[w] is the planned holder per incoming wavelength; nil
	// until the first Bandwidth call provides the topology callbacks.
	fixedAssign []int
	over        []int
}

// NewOracleStatic builds the oracle for one board. A nil profile
// yields a pure static policy: hold every level, keep every holder.
func NewOracleStatic(p Params, prof *Profile) *OracleStatic {
	headroom := p.Spec.Headroom
	if headroom == 0 {
		headroom = DefaultHeadroom
	}
	o := &OracleStatic{p: p, headroom: headroom, prof: prof}
	b := p.Boards
	o.fixedLevel = make([][]int, b)
	for w := 1; w < b; w++ {
		o.fixedLevel[w] = make([]int, b)
		for d := 0; d < b; d++ {
			o.fixedLevel[w][d] = -1
		}
	}
	if prof != nil {
		lad := p.Ladder
		for w := 1; w < b; w++ {
			for d := 0; d < b; d++ {
				demand := prof.OutDemandGbps[p.Board][w][d]
				buf := prof.OutBuf[p.Board][w][d]
				if demand < 0 {
					continue // never observed
				}
				switch {
				case demand == 0 && buf == 0:
					o.fixedLevel[w][d] = 0 // dark: wake-on-demand covers surprises
				case buf > p.Thresholds.BMax:
					// Buffer pressure in the profile means demand was supply-
					// limited even at the top rate; plan the top.
					o.fixedLevel[w][d] = lad.Top()
				default:
					lv := lad.Bottom()
					for ; lv < lad.Top(); lv++ {
						if o.headroom*demand <= p.Thresholds.LMax*lad.Gbps(lv) {
							break
						}
					}
					o.fixedLevel[w][d] = lv
				}
			}
		}
	}
	return o
}

// Name implements Policy.
func (o *OracleStatic) Name() string { return "oracle-static" }

// Power re-asserts the planned level every DPM window (the controller
// defers unsafe shutdowns until the laser drains; wake-on-demand may
// temporarily lift a dark laser, and the oracle puts it back).
func (o *OracleStatic) Power(obs LinkObs) int {
	fixed := o.fixedLevel[obs.Wavelength][obs.Dest]
	if fixed < 0 {
		return obs.Level
	}
	return fixed
}

// Bandwidth computes the fixed grant map once (the first window
// supplies the topology callbacks) and re-asserts it every window,
// deviating only to route around permanently failed lasers.
func (o *OracleStatic) Bandwidth(ctx *BandwidthCtx, obs []ChanObs, assign []int) []int {
	if o.fixedAssign == nil {
		o.plan(ctx)
	}
	b := o.p.Boards
	for w := 1; w < b; w++ {
		target := o.fixedAssign[w]
		if target < 0 {
			target = obs[w].Holder // no plan: static behavior
		}
		if !ctx.LaserHealthy(target, w) {
			// Planned holder cannot drive the channel: repair onto the
			// first surviving laser in ring order from the static owner.
			target = -1
			owner := ctx.StaticOwner(w)
			for i := 0; i < b; i++ {
				cand := (owner + i) % b
				if cand == o.p.Board {
					continue
				}
				if ctx.LaserHealthy(cand, w) {
					target = cand
					break
				}
			}
			if target < 0 {
				assign[w] = obs[w].Holder // no survivor; leave it dark
				continue
			}
		}
		if obs[w].Dead && target != obs[w].Holder {
			ctx.Repairs++
		}
		assign[w] = target
	}
	return assign
}

// plan derives the fixed grant map from the profile: every channel
// starts at its static owner, and channels whose profiled occupancy is
// idle move to the most demanding profiled-congested flows, respecting
// MaxHold.
func (o *OracleStatic) plan(ctx *BandwidthCtx) {
	b := o.p.Boards
	o.fixedAssign = make([]int, b)
	if o.prof == nil {
		for w := 1; w < b; w++ {
			o.fixedAssign[w] = -1 // keep whatever holds the channel
		}
		return
	}
	th := o.p.Thresholds
	maxHold := o.p.maxHold()
	board := o.p.Board
	// Source demand toward this board: the profiled buffer occupancy of
	// each source's statically owned channel.
	demand := make([]float64, b)
	holds := make([]int, b)
	for w := 1; w < b; w++ {
		owner := ctx.StaticOwner(w)
		o.fixedAssign[w] = owner
		holds[owner]++
		if d := o.prof.InBuf[board][w]; d > demand[owner] {
			demand[owner] = d
		}
	}
	over := o.over[:0]
	for s := 0; s < b; s++ {
		if s != board && demand[s] > th.BMax {
			over = append(over, s)
		}
	}
	o.over = over
	if len(over) == 0 {
		return
	}
	// Most demanding first; ties resolved by board index for determinism.
	sort.SliceStable(over, func(i, j int) bool { return demand[over[i]] > demand[over[j]] })
	next := 0
	for w := 1; w < b; w++ {
		owner := o.fixedAssign[w]
		if demand[owner] > th.BMin || o.prof.InLink[board][w] > 0 {
			continue // the owner used it in the profile
		}
		for tries := 0; tries < len(over); tries++ {
			cand := over[next%len(over)]
			next++
			if cand != owner && holds[cand] < maxHold {
				o.fixedAssign[w] = cand
				holds[owner]--
				holds[cand]++
				break
			}
		}
	}
}
