package run

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/migration"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/workloads/suite"
)

// The run defaults. Normalize fills them into zero fields, and the CLI
// flags take them as their defaults, so every surface means the same
// experiment by an omitted parameter.
const (
	DefaultInstr = 20_000_000 // instruction budget
	DefaultCores = 4          // the paper's configuration

	DefaultSampleInterval = 1_000_000 // instructions per sampling interval
	DefaultSampleClusters = 8         // clusters (representatives)
	DefaultSampleSeed     = 42        // clustering seed
	DefaultSampleWarmup   = 1         // unmeasured intervals before each chain
)

// Spec is one experiment: a workload (or a recorded trace, or a list of
// co-scheduled programs), an instruction budget, the migration chip's
// core count and scenario, and optionally interval sampling. The JSON
// form is the emsimd /run request body; Key is its content address.
type Spec struct {
	Workload string `json:"workload"`
	Instr    uint64 `json:"instr,omitempty"`
	Cores    int    `json:"cores,omitempty"`

	// Policy and Topology select the migration scenario; Normalize
	// spells the Michaud default and the uniform chip "".
	Policy   string `json:"policy,omitempty"`
	Topology string `json:"topology,omitempty"`

	// Programs, when non-empty, co-schedules one program per name on a
	// shared L2 complex instead of running Workload.
	Programs []string `json:"programs,omitempty"`

	// Sample estimates the result by interval sampling. The Sample*
	// parameters apply only then, and they enter the key only then, so
	// every full-run key is what it was before sampling existed.
	Sample         bool   `json:"sample,omitempty"`
	SampleInterval uint64 `json:"sample_interval,omitempty"`
	SampleClusters int    `json:"sample_clusters,omitempty"`
	SampleSeed     uint64 `json:"sample_seed,omitempty"`
	SampleWarmup   int    `json:"sample_warmup,omitempty"`

	// Replay names a trace file that drives the run instead of
	// Workload; a trace replays in full, so Instr then only labels the
	// run. Registry resolves workload names (nil = the paper's suite).
	// Neither crosses the wire or enters the key.
	Replay   string              `json:"-"`
	Registry *workloads.Registry `json:"-"`
}

// Normalize returns the spec in canonical form: the default scenario
// spelled "", and each zero Instr, Cores and (when Sample is set)
// Sample* field replaced by its default. A request that omits a field
// and one that spells out its default normalize to the same spec.
func (s Spec) Normalize() Spec {
	if s.Instr == 0 {
		s.Instr = DefaultInstr
	}
	if s.Cores == 0 {
		s.Cores = DefaultCores
	}
	if s.Policy == migration.PolicyMichaud {
		s.Policy = ""
	}
	if s.Topology == migration.TopologyUniform {
		s.Topology = ""
	}
	if s.Sample {
		if s.SampleInterval == 0 {
			s.SampleInterval = DefaultSampleInterval
		}
		if s.SampleClusters == 0 {
			s.SampleClusters = DefaultSampleClusters
		}
		if s.SampleSeed == 0 {
			s.SampleSeed = DefaultSampleSeed
		}
		if s.SampleWarmup == 0 {
			s.SampleWarmup = DefaultSampleWarmup
		}
	}
	return s
}

// Validate rejects a spec the simulator cannot run as given. It does
// not normalize: a zero core count or sampling interval is an error
// here, so callers that mean zero as "omitted" normalize first.
func (s Spec) Validate() error {
	if _, err := s.MigConfig(); err != nil {
		return err
	}
	if !s.Sample {
		// Sampling parameters without sampling would silently do
		// nothing; a mistyped request is an error, not a different
		// experiment.
		if s.SampleInterval != 0 || s.SampleClusters != 0 || s.SampleSeed != 0 || s.SampleWarmup != 0 {
			return fmt.Errorf("sample_* parameters require sample=true")
		}
	} else {
		if len(s.Programs) > 0 {
			return fmt.Errorf("sample and programs are mutually exclusive")
		}
		if s.SampleInterval == 0 {
			return fmt.Errorf("sample_interval must be positive")
		}
		if s.SampleClusters < 1 {
			return fmt.Errorf("sample_clusters must be positive")
		}
		if s.SampleWarmup < 0 {
			return fmt.Errorf("sample_warmup must be >= 0")
		}
	}
	if len(s.Programs) > 0 {
		if s.Workload != "" {
			return fmt.Errorf("workload and programs are mutually exclusive")
		}
		for _, n := range s.Programs {
			if _, err := s.Workloads().New(n); err != nil {
				return err
			}
		}
		return nil
	}
	if s.Replay != "" {
		return nil
	}
	if s.Workload == "" {
		return fmt.Errorf("workload is required")
	}
	_, err := s.Workloads().New(s.Workload)
	return err
}

// Key returns the spec's content address: a hex SHA-256 over the
// normalized fields plus the trace-format version. Scenario, program
// and sampling fields append only when non-default, so every key from
// before they existed still names its stored result.
func (s Spec) Key() string {
	n := s.Normalize()
	var b strings.Builder
	fmt.Fprintf(&b, "op=run\nworkload=%s\ninstr=%d\ncores=%d", n.Workload, n.Instr, n.Cores)
	if n.Policy != "" {
		fmt.Fprintf(&b, "\npolicy=%s", n.Policy)
	}
	if n.Topology != "" {
		fmt.Fprintf(&b, "\ntopology=%s", n.Topology)
	}
	if len(n.Programs) > 0 {
		fmt.Fprintf(&b, "\nprograms=%s", strings.Join(n.Programs, ","))
	}
	if n.Sample {
		fmt.Fprintf(&b, "\nsample=1\nsample_interval=%d\nsample_clusters=%d\nsample_seed=%d\nsample_warmup=%d",
			n.SampleInterval, n.SampleClusters, n.SampleSeed, n.SampleWarmup)
	}
	return HashKey(b.String())
}

// HashKey finishes a canonical encoding into a content address, folding
// in the event-stream format version: results computed under one trace
// encoding are never served for another.
func HashKey(canonical string) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("tracefmt=%d\n%s\n", trace.FormatVersion, canonical)))
	return hex.EncodeToString(h[:])
}

// SpecOf rebuilds the spec of the run a checkpoint belongs to. The
// checkpoint is authoritative about everything that shaped the stream,
// the scenario included (it rides the extension, absent for default
// runs).
func SpecOf(ck *machine.Checkpoint) Spec {
	s := Spec{Workload: ck.Workload, Replay: ck.Replay, Instr: ck.Instr, Cores: ck.Cores}
	s.Policy, s.Topology = ck.Scenario()
	return s
}

// MigConfig returns the migration chip's machine configuration.
func (s Spec) MigConfig() (machine.Config, error) {
	return machine.MigrationConfigScenario(s.Cores, s.Policy, s.Topology)
}

// NewPair builds the spec's two machines: the paper's 1-core baseline
// and the migration chip, sharing one L1 front end.
func (s Spec) NewPair() (*Pair, error) {
	mig, err := s.MigConfig()
	if err != nil {
		return nil, err
	}
	return NewPairConfig(machine.NormalConfig(), mig)
}

// NewMachines builds the spec's two machines unshared, each with its
// own L1 front end, for passes that drive them from separate
// goroutines.
func (s Spec) NewMachines() (normal, mig *machine.Machine, err error) {
	migCfg, err := s.MigConfig()
	if err != nil {
		return nil, nil, err
	}
	if normal, err = machine.New(machine.NormalConfig()); err != nil {
		return nil, nil, err
	}
	if mig, err = machine.New(migCfg); err != nil {
		return nil, nil, err
	}
	return normal, mig, nil
}

// Workloads returns the registry that resolves the spec's workload
// names.
func (s Spec) Workloads() *workloads.Registry {
	if s.Registry == nil {
		return suite.Registry()
	}
	return s.Registry
}

// Feed drives the spec's input into sink: a workload through a
// mem.Batcher, a trace through the zero-copy trace.BatchReader. Every
// call replays the identical stream, so independent passes, resumed
// runs and sampled chains all see the events one uninterrupted pass
// would.
func (s Spec) Feed(sink mem.BatchSink) error {
	if s.Replay != "" {
		f, err := os.Open(s.Replay)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err := trace.NewBatchReader(f)
		if err != nil {
			return err
		}
		_, err = tr.ReplayBatches(sink, nil)
		return err
	}
	w, err := s.Workloads().New(s.Workload)
	if err != nil {
		return err
	}
	ba := mem.NewBatcher(sink, 0)
	w.Run(ba, s.Instr)
	ba.Flush()
	return nil
}
