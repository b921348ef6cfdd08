package run

import (
	"os"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/workloads/suite"
)

// Input names a run's deterministic event source: a synthetic workload
// or a recorded trace. Every Feed replays the identical stream, so
// independent passes, resumed runs and sampled chains all see the events
// a single uninterrupted pass would.
type Input struct {
	// Workload names the workload; Replay names a trace file instead
	// (a trace replays in full, so Instr then only labels the run).
	Workload string
	Replay   string
	Instr    uint64
	// Registry resolves Workload (nil = the paper's suite).
	Registry *workloads.Registry
}

// Feed drives the input into sink: a workload through a mem.Batcher, a
// trace through the zero-copy trace.BatchReader.
func (in Input) Feed(sink mem.BatchSink) error {
	if in.Replay != "" {
		f, err := os.Open(in.Replay)
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
	reg := in.Registry
	if reg == nil {
		reg = suite.Registry()
	}
	w, err := reg.New(in.Workload)
	if err != nil {
		return err
	}
	ba := mem.NewBatcher(sink, 0)
	w.Run(ba, in.Instr)
	ba.Flush()
	return nil
}
