package machine

import "bytes"

// RoundTripCheckpoint pushes a checkpoint through the full EMCKPT2
// encode/decode path in memory and returns the decoded copy. The
// interval sampler warm-starts every measured interval from a
// round-tripped snapshot instead of the live machine state: anything
// the checkpoint format failed to capture would desynchronize the
// estimate from a full-fidelity run immediately, so the format's
// completeness is exercised on the production path, not only in tests
// (which pin the same property per interval boundary).
func RoundTripCheckpoint(ck *Checkpoint) (*Checkpoint, error) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		return nil, err
	}
	return ReadCheckpoint(&buf)
}
