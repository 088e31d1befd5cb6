package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// Every time an end-to-end metric reports is scaled to a nominal host
// speed. The benchmark runs on a few vCPUs of a shared host whose speed
// drifts with other tenants' load (turbo frequency, a busy SMT sibling,
// shared-cache pressure) by up to half, for tens of seconds at a time, so
// raw wall times of the same code spread too far from run to run to judge
// a change by. A fixed probe kernel, run right before and after each timed
// interval, measures the speed the host had; the interval's time is
// multiplied by (probeNominal ÷ the probe's time)^probeExponent. A metric
// thus reads what the run would have measured on a host running the probe
// in probeNominal: a change to the program moves it, a change in the
// host's load mostly does not. README.md has the measurements behind this.

// probeNominal is the probe's time on the host this benchmark was defined
// on (2 vCPUs of an Intel Xeon) at its typical speed. It only fixes the
// scale the metrics read in.
const probeNominal = 10 * time.Millisecond

// probeExponent is how much more the workloads slow down than the probe
// when the host does: fitted on 21 sweep-cold and 15 ffwd-warm runs whose
// raw speed differed by up to 1.8x, where 1.2-1.25 left the least spread
// on both and 1 left a tenth of the drift in.
const probeExponent = 1.25

// probeThreads is how many OS threads run the probe at once: one per CPU
// the workloads keep busy, so both CPUs' speed is sampled.
const probeThreads = 2

// probeTable is the probe's 256 KiB table, sized to stay in the L2 cache
// as the simulator's hot structures do.
var probeTable = func() []uint32 {
	t := make([]uint32, 1<<16)
	for i := range t {
		t[i] = uint32(i * 2654435761)
	}
	return t
}()

var probeSink uint64

// probeKernel is the probe's fixed work: a linear congruential sequence
// drives reads from probeTable and three-way branches on random bits that
// no predictor learns, the mix of the simulator's own hot loops (branchy
// integer code over cache-resident tables).
func probeKernel() uint64 {
	x, acc := uint64(12345), uint64(0)
	for i := 0; i < 1_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := uint64(probeTable[(x>>40)&0xffff])
		switch {
		case x>>63 != 0:
			acc += v
		case x>>62&1 != 0:
			acc ^= v << 3
		default:
			acc -= v
		}
	}
	return acc
}

// hostFactor runs the probe on probeThreads OS threads at once and returns
// (probeNominal ÷ their mean time)^probeExponent: the factor that scales a
// time measured at the host's current speed to the nominal speed.
func hostFactor() float64 {
	var (
		wg    sync.WaitGroup
		times [probeThreads]time.Duration
		sums  [probeThreads]uint64
	)
	for i := range times {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := time.Now()
			sums[i] = probeKernel()
			times[i] = time.Since(t0)
		}()
	}
	wg.Wait()
	var total time.Duration
	for i, t := range times {
		total += t
		probeSink += sums[i]
	}
	return math.Pow(float64(probeNominal)*probeThreads/float64(total), probeExponent)
}

// hostClock scales consecutive timed intervals to nominal host speed, by
// the mean of the probes taken right before and right after each.
type hostClock struct{ before float64 }

// newHostClock probes once: call it right before the first timed interval.
func newHostClock() *hostClock { return &hostClock{before: hostFactor()} }

// scale probes again and returns d, an interval that just ended, at
// nominal host speed. The probe also opens the next interval.
func (c *hostClock) scale(d time.Duration) float64 {
	after := hostFactor()
	s := d.Seconds() * (c.before + after) / 2
	c.before = after
	return s
}
