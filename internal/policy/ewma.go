package policy

func init() {
	Register("ewma", func(p Params) Policy { return NewEWMA(p) })
}

// ewmaZero snaps a decayed average to exact zero once the trend is
// negligible and the latest sample is idle: the DBR's "completely
// idle" classification tests LinkUtil == 0, and a geometric decay
// would otherwise never get there.
const ewmaZero = 1e-3

// EWMA is a predictive trend-following policy: it smooths each laser's
// link and buffer utilization with an exponentially weighted moving
// average and picks the lowest ladder level whose line rate covers the
// predicted demand, instead of reacting one rung at a time to the last
// window like the paper baseline. The DBR grants run the paper's
// classification over the smoothed observations, so one noisy window
// neither grabs nor returns a channel.
type EWMA struct {
	p     Params
	alpha float64
	// link/buf are the smoothed per-laser statistics, indexed [w][d];
	// seen marks lasers with at least one sample (the first observation
	// seeds the average instead of decaying from zero).
	link, buf [][]float64
	seen      [][]bool
	// inLink/inBuf smooth the incoming-channel statistics per wavelength
	// for the Bandwidth decision.
	inLink, inBuf []float64
	inSeen        []bool
	// smoothed is the Bandwidth scratch: obs rewritten with smoothed
	// utilizations before the shared DBR core classifies them.
	smoothed []ChanObs
	dbr      dbrCore
}

// NewEWMA builds the trend-following policy for one board.
func NewEWMA(p Params) *EWMA {
	alpha := p.Spec.Alpha
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	b := p.Boards
	e := &EWMA{
		p: p, alpha: alpha,
		link: make([][]float64, b), buf: make([][]float64, b), seen: make([][]bool, b),
		inLink: make([]float64, b), inBuf: make([]float64, b), inSeen: make([]bool, b),
		smoothed: make([]ChanObs, b),
		dbr:      newDBRCore(p),
	}
	for w := 1; w < b; w++ {
		e.link[w] = make([]float64, b)
		e.buf[w] = make([]float64, b)
		e.seen[w] = make([]bool, b)
	}
	return e
}

// Name implements Policy.
func (e *EWMA) Name() string { return "ewma" }

// fold updates the (link, buf) averages behind seen with one sample
// pair and returns the new averages.
func (e *EWMA) fold(link, buf *float64, seen *bool, l, b float64) (float64, float64) {
	if !*seen {
		*seen = true
		*link, *buf = l, b
	} else {
		*link = float64(e.alpha*l) + float64((1-e.alpha)**link)
		*buf = float64(e.alpha*b) + float64((1-e.alpha)**buf)
	}
	if l == 0 && *link < ewmaZero {
		*link = 0
	}
	if b == 0 && *buf < ewmaZero {
		*buf = 0
	}
	return *link, *buf
}

// Power predicts next-window demand from the smoothed link utilization
// and jumps straight to the lowest level whose line rate covers it
// with L_max occupancy, rather than stepping one rung per window.
func (e *EWMA) Power(o LinkObs) int {
	if o.Level == 0 {
		return 0
	}
	th, lad := e.p.Thresholds, e.p.Ladder
	w, d := o.Wavelength, o.Dest
	link, buf := e.fold(&e.link[w][d], &e.buf[w][d], &e.seen[w][d], o.LinkUtil, o.BufUtil)
	if link == 0 && o.QueueLen == 0 && o.LiveQueue == 0 && !o.Busy {
		// The trend and the present agree the link is dead: shut it down.
		return 0
	}
	if buf > th.BMax {
		// Sustained buffer pressure means the observed utilization is
		// supply-limited; plan for the top rate, not the measured one.
		return lad.Top()
	}
	// Predicted demand in Gbps: utilization is the busy fraction at the
	// current line rate.
	demand := link * lad.Gbps(o.Level)
	for lv := lad.Bottom(); lv <= lad.Top(); lv++ {
		if demand <= th.LMax*lad.Gbps(lv) {
			return lv
		}
	}
	return lad.Top()
}

// Bandwidth runs the paper's DBR classification over smoothed
// observations: demand and idleness are judged on the trend, while the
// fault and ownership signals (Dead, OwnerQueue, OwnerDrops, live
// QueueLen) pass through unsmoothed — a dark channel or a starving
// owner must never be averaged away.
func (e *EWMA) Bandwidth(ctx *BandwidthCtx, obs []ChanObs, assign []int) []int {
	for w := 1; w < len(obs); w++ {
		o := obs[w]
		o.LinkUtil, o.BufUtil = e.fold(&e.inLink[w], &e.inBuf[w], &e.inSeen[w], o.LinkUtil, o.BufUtil)
		e.smoothed[w] = o
	}
	return e.dbr.run(ctx, e.smoothed, assign)
}
