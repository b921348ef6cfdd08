package machine

import "bytes"

// RoundTripCheckpoint pushes a checkpoint through the full EMCKPT2
// encode/decode path in memory and returns the decoded copy: what a
// resume from a checkpoint file would restore, without the file. The
// checkpoint completeness tests restore from it at every boundary they
// cut.
func RoundTripCheckpoint(ck *Checkpoint) (*Checkpoint, error) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		return nil, err
	}
	return ReadCheckpoint(&buf)
}
