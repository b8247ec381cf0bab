package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/board"
	"repro/internal/leakage"
	"repro/internal/rsa"
	"repro/internal/sysfs"
)

// LeakageConfig parameterizes the TVLA-style assessment of the
// AmpereBleed channel against the RSA victim.
type LeakageConfig struct {
	// Seed for the whole assessment. Zero means 1.
	Seed int64
	// SamplesPerSession collected per victim session; zero means 2000.
	// Unlike the raw attack loop, the assessment samples once per sensor
	// register update (35 ms) so the t-test sees independent
	// observations — polling a latched register faster only duplicates
	// samples and inflates the statistic.
	SamplesPerSession int
	// RandomSessions is the number of random-key sessions pooled on the
	// "random" side of the t-test; zero means 4.
	RandomSessions int
	// Countermeasure assesses the Montgomery-ladder victim instead.
	Countermeasure bool
	// Parallelism bounds concurrent victim sessions; zero means
	// GOMAXPROCS. Every session's seed comes from its tag, so results
	// are bit-identical for any value.
	Parallelism int
}

// LeakageResult is the assessment outcome.
type LeakageResult struct {
	// TVLA is the fixed-vs-random Welch t-test over FPGA current
	// samples. |T| > 4.5 certifies the channel as leaking.
	TVLA leakage.TVLAResult
	// SNR is the signal-to-noise ratio of the current channel across
	// three Hamming-weight groups (1, 512, 1024).
	SNR float64
}

// AssessRSALeakage runs the standard fixed-vs-random leakage test over
// the FPGA current channel while RSA victims execute. Without the
// countermeasure the channel fails TVLA decisively; with the Montgomery
// ladder it passes.
func AssessRSALeakage(cfg LeakageConfig) (*LeakageResult, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.SamplesPerSession == 0 {
		cfg.SamplesPerSession = 2000
	}
	if cfg.SamplesPerSession < 10 {
		return nil, errors.New("core: too few samples per session")
	}
	if cfg.RandomSessions == 0 {
		cfg.RandomSessions = 4
	}
	if cfg.RandomSessions < 1 {
		return nil, errors.New("core: need at least one random session")
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.Parallelism < 1 {
		return nil, errors.New("core: non-positive parallelism")
	}

	// The sessions, in the order their samples are pooled: the fixed
	// session, the random ones, then one per SNR weight group.
	type session struct {
		tag      string
		exponent *big.Int
	}
	// Fixed side: one deliberately heavy key (HW 700), reused across the
	// fixed session — the TVLA convention of a fixed input class.
	fixedRng := rand.New(rand.NewSource(captureSeed(cfg.Seed, "tvla/fixed-key", 0)))
	fixedKey, err := rsa.ExponentWithHammingWeight(1024, 700, fixedRng)
	if err != nil {
		return nil, err
	}
	sessions := []session{{"tvla/fixed", fixedKey}}
	// Random side: a fresh uniform 1024-bit key per session (binomial
	// Hamming weight around 512).
	for s := 0; s < cfg.RandomSessions; s++ {
		keyRng := rand.New(rand.NewSource(captureSeed(cfg.Seed, "tvla/random-key", s)))
		exp, err := rsa.Modulus(1024, keyRng) // odd, top bit set: a valid exponent
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, session{fmt.Sprintf("tvla/random/%d", s), exp})
	}
	// SNR across three well-separated weight groups.
	for _, hw := range []int{1, 512, 1024} {
		keyRng := rand.New(rand.NewSource(captureSeed(cfg.Seed, "snr-key", hw)))
		exp, err := rsa.ExponentWithHammingWeight(1024, hw, keyRng)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, session{fmt.Sprintf("snr/%d", hw), exp})
	}

	// Every session wires its own board from its tag's seed, so they run
	// concurrently and are assembled by index.
	samples := make([][]float64, len(sessions))
	if err := fanOut(context.Background(), len(sessions), cfg.Parallelism, func(ctx context.Context, i int) (err error) {
		samples[i], err = collectRSACurrent(ctx, cfg, sessions[i].tag, sessions[i].exponent)
		return err
	}); err != nil {
		return nil, err
	}
	fixed, groups := samples[0], samples[1+cfg.RandomSessions:]
	var random []float64
	for _, s := range samples[1 : 1+cfg.RandomSessions] {
		random = append(random, s...)
	}

	res := &LeakageResult{}
	if res.TVLA, err = leakage.TVLA(fixed, random); err != nil {
		return nil, err
	}
	if res.SNR, err = leakage.SNR(groups); err != nil {
		return nil, err
	}
	return res, nil
}

// collectRSACurrent runs one victim session and returns the attacker's
// FPGA-current samples. ctx is polled between the warmup and the
// capture.
func collectRSACurrent(ctx context.Context, cfg LeakageConfig, tag string, exponent *big.Int) ([]float64, error) {
	seed := captureSeed(cfg.Seed, tag, 0)
	b, err := board.NewZCU102(board.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	modulus, err := rsa.Modulus(1024, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	circuit, err := rsa.NewCircuit(rsa.CircuitConfig{
		Exponent: exponent,
		Modulus:  modulus,
		Rand:     b.Engine().Stream("rsa-plaintexts"),
		Ladder:   cfg.Countermeasure,
	})
	if err != nil {
		return nil, err
	}
	if err := b.Fabric().Place(circuit, b.Fabric().SpreadEvenly()); err != nil {
		return nil, err
	}
	b.CPUFull().SetUtil(0.1)

	attacker, err := NewAttacker(b.Sysfs(), sysfs.Nobody)
	if err != nil {
		return nil, err
	}
	dev, err := b.Sensor(board.SensorFPGA)
	if err != nil {
		return nil, err
	}
	interval := dev.UpdateInterval()
	rec, err := attacker.NewRecorder(Channel{Label: board.SensorFPGA, Kind: Current}, interval)
	if err != nil {
		return nil, err
	}
	rec.Reserve(cfg.SamplesPerSession + 1)
	b.Run(200 * time.Millisecond)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rec.Reset()
	b.Engine().MustRegister("recorder/tvla", rec)
	b.Run(time.Duration(cfg.SamplesPerSession) * interval)
	tr, err := rec.Trace()
	if err != nil {
		return nil, err
	}
	return tr.Samples, nil
}
