package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"tsperr/internal/core"
	"tsperr/internal/mibench"
)

// SuiteEntry is one line of a batch suite file: a benchmark name plus the
// per-entry analysis knobs. The zero values inherit the suite-wide defaults
// supplied to RunSuite.
type SuiteEntry struct {
	Benchmark string `json:"benchmark"`
	// Scenarios is the input-dataset fan-out (0 = the suite default).
	Scenarios int `json:"scenarios,omitempty"`
	// Retries / MinScenarios / FailFast mirror core.AnalyzeOpts.
	Retries      int  `json:"retries,omitempty"`
	MinScenarios int  `json:"min_scenarios,omitempty"`
	FailFast     bool `json:"fail_fast,omitempty"`
	// MCTrials, when positive, appends a sharded Monte Carlo validation to
	// the entry's report; MCSeed seeds it.
	MCTrials int    `json:"mc_trials,omitempty"`
	MCSeed   uint64 `json:"mc_seed,omitempty"`
}

// Suite is a parsed batch suite.
type Suite struct {
	Entries []SuiteEntry `json:"entries"`
}

// maxSuiteBytes bounds a suite document; far above any realistic sweep but
// below anything that could hurt.
const maxSuiteBytes = 1 << 20

// ParseSuite decodes and validates a suite document. Unknown fields are
// rejected so a typo'd knob fails loudly instead of silently running the
// defaults.
func ParseSuite(r io.Reader) (*Suite, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxSuiteBytes))
	dec.DisallowUnknownFields()
	var s Suite
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("harness: parse suite: %w", err)
	}
	if len(s.Entries) == 0 {
		return nil, fmt.Errorf("harness: suite has no entries")
	}
	for i, e := range s.Entries {
		if _, err := mibench.ByName(e.Benchmark); err != nil {
			return nil, fmt.Errorf("harness: suite entry %d: %w", i, err)
		}
		if e.Scenarios < 0 || e.Retries < 0 || e.MinScenarios < 0 || e.MCTrials < 0 {
			return nil, fmt.Errorf("harness: suite entry %d (%s): negative knob", i, e.Benchmark)
		}
	}
	return &s, nil
}

// LoadSuite reads a suite file from disk.
func LoadSuite(path string) (*Suite, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseSuite(f)
}

// Items converts the suite into core batch items, folding the suite-wide
// defaults into entries that left a knob at zero. defaults.Workers (and the
// other scheduling knobs) apply to every entry — they are excluded from the
// dedup key, so this cannot split identical entries.
func (s *Suite) Items(defaults core.AnalyzeOpts, defaultScenarios int) ([]core.BatchItem, error) {
	if defaultScenarios <= 0 {
		defaultScenarios = DefaultScenarios
	}
	items := make([]core.BatchItem, len(s.Entries))
	for i, e := range s.Entries {
		b, err := mibench.ByName(e.Benchmark)
		if err != nil {
			return nil, fmt.Errorf("harness: suite entry %d: %w", i, err)
		}
		scenarios := e.Scenarios
		if scenarios == 0 {
			scenarios = defaultScenarios
		}
		opts := defaults
		if e.Retries > 0 {
			opts.Retries = e.Retries
		}
		if e.MinScenarios > 0 {
			opts.MinScenarios = e.MinScenarios
		}
		if e.FailFast {
			opts.FailFast = true
		}
		if e.MCTrials > 0 {
			opts.MCTrials = e.MCTrials
			opts.MCSeed = e.MCSeed
		}
		items[i] = core.BatchItem{Name: b.Name, Spec: SpecFor(b, scenarios), Opts: opts}
	}
	return items, nil
}

// RunSuite runs a suite against the engine's framework via
// core.EstimateBatch.
// onResult, when non-nil, observes each entry's result as it lands (in suite
// order), which is how the CLI streams progress rows.
func (e *Engine) RunSuite(ctx context.Context, s *Suite, defaults core.AnalyzeOpts, defaultScenarios int, onResult func(core.BatchItemResult)) (*core.BatchResult, error) {
	items, err := s.Items(defaults, defaultScenarios)
	if err != nil {
		return nil, err
	}
	f, err := e.framework(ctx, e.cond)
	if err != nil {
		return nil, err
	}
	return f.EstimateBatch(ctx, items, onResult)
}
