package machine

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/prefetch"
)

// The checkpoint completeness property: at any interval boundary,
// replacing a machine with a fresh one restored from an EMCKPT2
// round-trip of its own snapshot and replaying the next interval must
// be indistinguishable from never having stopped — not just in final
// stats but in the checkpoint bytes of the end state, which cover every
// field the format carries. emsim -resume and the service's spooled
// jobs rest on it, so it is pinned for every scenario shape a run can
// take: each policy, the migration chip at 2, 4 and 8 cores, and the
// migration chip with the stream prefetcher on.

// intervalScenario is one machine configuration under test.
type intervalScenario struct {
	name             string
	cores            int
	policy, topology string // "" = the default
	build            func() (*Machine, error)
}

func intervalScenarios() []intervalScenario {
	return []intervalScenario{
		{name: "normal", cores: 1,
			build: func() (*Machine, error) { return New(NormalConfig()) }},
		{name: "migration", cores: 4,
			build: func() (*Machine, error) { return New(MigrationConfigN(4)) }},
		{name: "michaud-2", cores: 2,
			build: func() (*Machine, error) { return New(MigrationConfigN(2)) }},
		{name: "michaud-8", cores: 8,
			build: func() (*Machine, error) { return New(MigrationConfigN(8)) }},
		policyScenario(4, "never", ""),
		policyScenario(4, "numa", "cluster"),
		{name: "prefetch", cores: 4,
			build: func() (*Machine, error) {
				cfg := MigrationConfigN(4)
				pfc := prefetch.Default()
				cfg.Prefetch = &pfc
				return New(cfg)
			}},
	}
}

// policyScenario is a policy and topology scenario of the migration chip,
// named after them.
func policyScenario(cores int, policy, topology string) intervalScenario {
	return intervalScenario{name: strings.Trim(policy+"-"+topology, "-"), cores: cores, policy: policy, topology: topology,
		build: func() (*Machine, error) {
			cfg, err := MigrationConfigScenario(cores, policy, topology)
			if err != nil {
				return nil, err
			}
			return New(cfg)
		}}
}

// warmRestart round-trips m's state through the EMCKPT2 encode/decode
// path and returns a fresh machine restored from the decoded bytes.
func warmRestart(t *testing.T, sc intervalScenario, m *Machine, events uint64) *Machine {
	t.Helper()
	ck, err := RoundTripCheckpoint(scenarioCheckpoint(t, sc, m, events))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sc.build()
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.grp.Restore(ck, sc.name); err != nil {
		t.Fatal(err)
	}
	return fresh
}

// scenarioCheckpoint captures m, a group of one, as sc's checkpoint.
func scenarioCheckpoint(t *testing.T, sc intervalScenario, m *Machine, events uint64) *Checkpoint {
	t.Helper()
	ck, err := m.grp.Capture(sc.name)
	if err != nil {
		t.Fatal(err)
	}
	ck.Cores, ck.Events, ck.Policy, ck.Topology = sc.cores, events, sc.policy, sc.topology
	return ck
}

// endStateBytes serialises a machine's complete observable end state to
// checkpoint bytes, so two runs can be compared byte-for-byte rather
// than field-by-field.
func endStateBytes(t *testing.T, sc intervalScenario, m *Machine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, scenarioCheckpoint(t, sc, m, 0)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIntervalWarmStartReplayIdentical is the machine's state law:
// restore-at-interval-i, replay to interval i+1 == uninterrupted run,
// per boundary, for every scenario shape. The interrupted run
// warm-restarts at EVERY interval boundary, so each i→i+1 segment runs
// on checkpoint-born state. Each restored machine must serialise to its
// source's bytes at once, and the end states to identical bytes.
func TestIntervalWarmStartReplayIdentical(t *testing.T) {
	// A working set larger than one L2's 8192 lines keeps the caches
	// churning (and the migration controller active) across boundaries.
	evs := captureSynthetic(12<<10, 120_000)
	const interval = 17_000 // off any power-of-two structure in the stream

	for _, sc := range intervalScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			ref, err := sc.build()
			if err != nil {
				t.Fatal(err)
			}
			deliver(t, evs, ref)

			m, err := sc.build()
			if err != nil {
				t.Fatal(err)
			}
			for start := 0; start < len(evs); start += interval {
				end := start + interval
				if end > len(evs) {
					end = len(evs)
				}
				deliver(t, evs[start:end], m)
				if end < len(evs) {
					fresh := warmRestart(t, sc, m, uint64(end))
					if !bytes.Equal(endStateBytes(t, sc, fresh), endStateBytes(t, sc, m)) {
						t.Fatalf("restored machine's checkpoint bytes differ from its source at event %d", end)
					}
					m = fresh
				}
			}

			if m.Stats != ref.Stats {
				t.Errorf("stats diverge after warm-started replay:\nwarm: %+v\nref:  %+v", m.Stats, ref.Stats)
			}
			wb, rb := endStateBytes(t, sc, m), endStateBytes(t, sc, ref)
			if !bytes.Equal(wb, rb) {
				t.Errorf("end-state checkpoint bytes diverge (%d vs %d bytes)", len(wb), len(rb))
			}
		})
	}
}
