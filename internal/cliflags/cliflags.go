// Package cliflags is the global-flag layer both command-line tools
// share: -faults, -ledger, -trace-out, -log-level and -log-format. It
// registers and validates those flags, sets up structured logging and
// the run ID, resolves the fault profile, and at the end of a run
// writes the trace timeline and appends the run manifest to the ledger.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/obs/ledger"
	"repro/internal/obs/olog"
)

// Flags holds the shared global flag values.
type Flags struct {
	Faults    string
	Ledger    string
	TraceOut  string
	LogLevel  string
	LogFormat string
}

// Register declares the flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Faults, "faults", "none", "fault profile injected into every simulated board: "+strings.Join(faults.PresetNames(), "|"))
	fs.StringVar(&f.Ledger, "ledger", "", "append a run manifest to this JSONL run ledger")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Chrome trace-event JSON timeline of the run (load in Perfetto)")
	fs.StringVar(&f.LogLevel, "log-level", "warn", "structured log level: debug|info|warn|error")
	fs.StringVar(&f.LogFormat, "log-format", "text", "structured log format: text|json")
}

// Session is one run of a tool under the global flags.
type Session struct {
	// Profile is the resolved -faults profile; nil when the run injects
	// no fault.
	Profile *faults.Profile

	flags     Flags
	intensity float64
	started   time.Time
}

// Start validates the flags, installs the stderr logger with run ID
// "<label>-<pid>-<unix time>" and resolves -faults scaled by intensity.
// An error is a usage error.
func (f *Flags) Start(label string, intensity float64) (*Session, error) {
	s := &Session{flags: *f, intensity: intensity, started: time.Now()}
	if err := olog.Setup(f.LogLevel, f.LogFormat, os.Stderr); err != nil {
		return nil, err
	}
	olog.SetRunID(fmt.Sprintf("%s-%d-%d", label, os.Getpid(), s.started.Unix()))
	var err error
	if s.Profile, err = faults.Resolve(f.Faults, intensity); err != nil {
		return nil, err
	}
	return s, nil
}

// FaultSpec returns the fault profile name and intensity as job specs
// and run manifests record them: empty and zero when no fault is
// injected.
func (s *Session) FaultSpec() (string, float64) {
	if s.Profile == nil {
		return "", 0
	}
	return s.flags.Faults, s.intensity
}

// Finish writes the -trace-out timeline and, unless info is nil,
// appends info's manifest to the -ledger, reporting each file written
// on w. The session fills in the start time, wall time and, when info
// names no fault profile, the session's own.
func (s *Session) Finish(w io.Writer, info *ledger.RunInfo) error {
	if s.flags.TraceOut != "" {
		if err := export.WriteFile(s.flags.TraceOut, obs.Default.Snapshot()); err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
		fmt.Fprintf(w, "trace timeline written to %s\n", s.flags.TraceOut)
	}
	if s.flags.Ledger == "" || info == nil {
		return nil
	}
	if info.FaultProfile == "" {
		info.FaultProfile, info.FaultIntensity = s.FaultSpec()
	}
	info.Started, info.Wall = s.started, time.Since(s.started)
	if err := ledger.Append(s.flags.Ledger, ledger.New(*info, obs.Default.Snapshot())); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	fmt.Fprintf(w, "run manifest appended to %s\n", s.flags.Ledger)
	return nil
}
