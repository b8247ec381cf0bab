package ina226_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/ina226"
	"repro/internal/obs"
)

// The kinds of operation a lazyCase schedule applies to both devices.
const (
	opStep        = iota // Arg ticks at the current dt
	opSetDt              // dt becomes lazyDts[Arg%len]
	opRead               // Read()
	opReg                // one of RegShunt/RegBus/RegCurrent/RegPower by Arg%4
	opReadReg            // ReadRegister(lazyRegs[Arg%len])
	opWriteConfig        // WriteRegister(RegConfig, Arg): bit 15 resets
	opWriteCal           // WriteRegister(RegCalibration, Arg); 0 is rejected
	opWriteMask          // WriteRegister(RegMaskEnable, lazyMasks[Arg%len])
	opWriteLimit         // WriteRegister(RegAlertLimit, Arg)
	opSetInterval        // SetUpdateInterval(1+Arg%36 ms); 1 and 36 are rejected
	opSetFaults          // SetFaults: none, stale latches, or stale + bit flips
	opAlert              // Alert()
	numOps
)

var opNames = [numOps]string{"step", "dt", "read", "reg", "readreg", "config",
	"cal", "mask", "limit", "interval", "faults", "alert"}

var (
	lazyDts  = []time.Duration{500 * time.Microsecond, 250 * time.Microsecond, time.Millisecond, 333 * time.Microsecond}
	lazyRegs = []ina226.Register{ina226.RegConfig, ina226.RegShuntVoltage, ina226.RegBusVoltage,
		ina226.RegPower, ina226.RegCurrent, ina226.RegCalibration, ina226.RegMaskEnable,
		ina226.RegAlertLimit, ina226.RegManufacturerID, ina226.RegDieID}
	lazyMasks = []uint16{0, ina226.AlertShuntOver, ina226.AlertShuntUnder,
		ina226.AlertBusOver, ina226.AlertBusUnder, ina226.AlertPowerOver}
)

type lazyOp struct{ Kind, Arg int64 }

// lazyCase is one random schedule; Seed fixes the probe level, the bus
// voltage and every random stream, identically for both devices.
type lazyCase struct {
	Seed int64
	Ops  []lazyOp
}

func genLazyOp() check.Gen[lazyOp] {
	kind, arg := check.IntRange(0, numOps-1), check.IntRange(0, 1<<16-1)
	return check.Gen[lazyOp]{
		Generate: func(r *rand.Rand, _ int) lazyOp {
			k := r.Int63n(numOps + 4) // steps get five shares in numOps+4
			if k >= numOps {
				k = opStep
			}
			if k == opStep {
				return lazyOp{k, 1 + r.Int63n(300)}
			}
			return lazyOp{k, arg.Generate(r, 0)}
		},
		Shrink: func(op lazyOp) []lazyOp {
			var out []lazyOp
			for _, a := range arg.Shrink(op.Arg) {
				out = append(out, lazyOp{op.Kind, a})
			}
			for _, k := range kind.Shrink(op.Kind) {
				out = append(out, lazyOp{k, op.Arg})
			}
			return out
		},
		Describe: func(op lazyOp) string { return fmt.Sprintf("%s(%d)", opNames[op.Kind], op.Arg) },
	}
}

func genLazyCase() check.Gen[lazyCase] {
	ops := check.SliceOf(genLazyOp(), 1, 200)
	return check.Gen[lazyCase]{
		Generate: func(r *rand.Rand, size int) lazyCase {
			return lazyCase{Seed: r.Int63n(1 << 30), Ops: ops.Generate(r, size)}
		},
		Shrink: func(c lazyCase) []lazyCase {
			var out []lazyCase
			for _, o := range ops.Shrink(c.Ops) {
				out = append(out, lazyCase{c.Seed, o})
			}
			return out
		},
		Describe: func(c lazyCase) string { return fmt.Sprintf("seed=%d ops=%s", c.Seed, ops.Describe(c.Ops)) },
	}
}

// twin is one of the two devices under comparison, with the streams
// behind its probe and its noise.
type twin struct {
	dev         *ina226.Device
	probe, nois *rand.Rand
	conversions int64 // ina226.conversions counted during this device's calls
}

func newTwin(c *check.T, seed int64, private bool) *twin {
	tw := &twin{
		probe: rand.New(rand.NewSource(seed)),
		nois:  rand.New(rand.NewSource(seed + 1)),
	}
	amps := float64(seed%500)/100 - 1 // -1 A .. 4 A: exercises clamping and the unipolar bus
	volts := 0.5 + float64(seed%7)*0.5
	dev, err := ina226.New(ina226.Config{
		Label:           "ina226_u78",
		ShuntOhms:       0.005,
		CurrentLSB:      1e-3,
		NoiseShuntVolts: 2e-6 * float64(1+seed%50),
		NoiseBusVolts:   50e-6,
		Probe: ina226.Probe{
			CurrentAmps: func() float64 { return amps + tw.probe.NormFloat64()*0.001 },
			BusVolts:    func() float64 { return volts },
			Private:     private,
		},
		Rand: tw.nois,
	})
	if err != nil {
		c.Fatalf("New: %v", err)
	}
	tw.dev = dev
	return tw
}

var conversions = obs.C("ina226.conversions")

// do runs f against the device and charges the conversions it counted.
func (tw *twin) do(f func(d *ina226.Device)) {
	before := conversions.Value()
	f(tw.dev)
	tw.conversions += conversions.Value() - before
}

// hooks builds fault hooks whose draws come from a stream seeded by
// seed, so the two devices get identical, independent hook streams.
func hooks(kind, seed int64) ina226.FaultHooks {
	var h ina226.FaultHooks
	if kind == 0 {
		return h
	}
	rng := rand.New(rand.NewSource(seed))
	h.SkipLatch = func() bool { return rng.Float64() < 0.3 }
	if kind == 2 {
		h.CorruptLatch = func(r *ina226.LatchedRegs) {
			if rng.Float64() < 0.5 {
				r.Current ^= 1 << uint(rng.Intn(16))
			}
		}
	}
	return h
}

// state renders everything an observer can see of a device.
func state(d *ina226.Device) string {
	var sb strings.Builder
	for _, r := range lazyRegs {
		v, err := d.ReadRegister(r)
		fmt.Fprintf(&sb, "%02x=%04x/%v ", uint8(r), v, err)
	}
	fmt.Fprintf(&sb, "regs=%d,%d,%d,%d read=%+v alert=%v interval=%v",
		d.RegShunt(), d.RegBus(), d.RegCurrent(), d.RegPower(), d.Read(), d.Alert(), d.UpdateInterval())
	return sb.String()
}

// TestPropLazyMatchesEager drives a private (observe-on-read) device
// and an eager twin with identical probes and noise streams through a
// random schedule of steps, dt changes, reads, register reads and
// writes, interval changes and fault-hook installs. Every observation
// must see the same registers, alert flag and update count on both, the
// ina226.conversions counter must advance equally, and at the end both
// devices must have drawn the same numbers from both streams.
func TestPropLazyMatchesEager(t *testing.T) {
	check.Forall(t, genLazyCase(), func(c *check.T, lc lazyCase) {
		lazy, eager := newTwin(c, lc.Seed, true), newTwin(c, lc.Seed, false)
		dt, now := lazyDts[0], time.Duration(0)
		unobserved := false // steps since the last observation
		var dtPending, observedPending, faulted, reset bool
		both := func(f func(d *ina226.Device) string) {
			var got, want string
			lazy.do(func(d *ina226.Device) { got = f(d) })
			eager.do(func(d *ina226.Device) { want = f(d) })
			if got != want {
				c.Fatalf("lazy and eager devices disagree:\n lazy: %s\neager: %s", got, want)
			}
		}
		for i, op := range lc.Ops {
			switch op.Kind {
			case opStep:
				both(func(d *ina226.Device) string {
					for k, t := int64(0), now; k < op.Arg; k, t = k+1, t+dt {
						d.Step(t, dt)
					}
					return fmt.Sprint("updates=", d.Updates())
				})
				now += time.Duration(op.Arg) * dt
				unobserved = true
			case opSetDt:
				next := lazyDts[op.Arg%int64(len(lazyDts))]
				dtPending = dtPending || unobserved && next != dt && !faulted
				dt = next
			default:
				observedPending = observedPending || unobserved && !faulted
				both(func(d *ina226.Device) string { return observe(d, op, lc.Seed+int64(i)) })
				reset = reset || op.Kind == opWriteConfig && op.Arg&0x8000 != 0 && !faulted
				faulted = faulted || op.Kind == opSetFaults && op.Arg%3 != 0
				unobserved = false
			}
			if lazy.conversions != eager.conversions {
				c.Fatalf("op %d %s: ina226.conversions advanced %d (lazy) vs %d (eager)",
					i, opNames[op.Kind], lazy.conversions, eager.conversions)
			}
		}
		both(state)
		c.Classify(dtPending, "lazy-dt-change-with-pending-ticks")
		c.Classify(observedPending, "lazy-observe-with-pending-ticks")
		c.Classify(reset, "lazy-reset")
		c.Classify(faulted, "faults-installed")
		if a, b := lazy.probe.Int63(), eager.probe.Int63(); a != b {
			c.Fatalf("probe streams diverged: next draw %d vs %d", a, b)
		}
		if a, b := lazy.nois.Int63(), eager.nois.Int63(); a != b {
			c.Fatalf("noise streams diverged: next draw %d vs %d", a, b)
		}
	})
}

// observe applies one observer op and renders its result together
// with the device's full observable state.
func observe(d *ina226.Device, op lazyOp, hookSeed int64) string {
	var res any
	switch op.Kind {
	case opRead:
		res = d.Read()
	case opReg:
		res = [4]func() int32{d.RegShunt, d.RegBus, d.RegCurrent, d.RegPower}[op.Arg%4]()
	case opReadReg:
		v, err := d.ReadRegister(lazyRegs[op.Arg%int64(len(lazyRegs))])
		res = fmt.Sprint(v, err)
	case opWriteConfig:
		res = d.WriteRegister(ina226.RegConfig, uint16(op.Arg))
	case opWriteCal:
		res = d.WriteRegister(ina226.RegCalibration, uint16(op.Arg))
	case opWriteMask:
		res = d.WriteRegister(ina226.RegMaskEnable, lazyMasks[op.Arg%int64(len(lazyMasks))])
	case opWriteLimit:
		res = d.WriteRegister(ina226.RegAlertLimit, uint16(op.Arg))
	case opSetInterval:
		res = d.SetUpdateInterval(time.Duration(1+op.Arg%36) * time.Millisecond)
	case opSetFaults:
		d.SetFaults(hooks(op.Arg%3, hookSeed))
	case opAlert:
		res = d.Alert()
	}
	return fmt.Sprintf("%v | updates=%d %s", res, d.Updates(), state(d))
}
