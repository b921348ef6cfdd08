package main

import (
	"fmt"
	"path/filepath"
)

// regen recomputes every golden digest with the binaries built from the
// checkout and rewrites golden.json. It is for a change that alters the
// model or an output format on purpose; review the diff of golden.json
// like any other output change.
func (e *env) regen() error {
	e.g = &golden{FullInstr: fullInstr, Full: map[string]string{}, Truth: map[string]string{},
		Sampled: map[string]string{}, Service: map[string]string{}}
	e.recording = true
	sp, err := e.setup("sampled", filepath.Join(e.work, "sampled"))
	if err != nil {
		return err
	}
	for _, name := range programs() {
		if _, _, _, err := e.fullOp(sp, name); err != nil {
			return err
		}
	}
	for _, op := range allSampledOps() {
		if _, _, err := e.sampledOpRun(sp, op); err != nil {
			return err
		}
	}
	vp, err := e.setup("service", filepath.Join(e.work, "service"))
	if err != nil {
		return err
	}
	d, err := startDaemon(vp.dir, vp.emsimd, daemonArgs("poolstore")...)
	if err != nil {
		return err
	}
	err = e.postAll(d.addr, missPool())
	if _, stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	if err := e.g.save(e.root); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d full, %d truth, %d sampled, %d service digests\n", goldenFile,
		len(e.g.Full), len(e.g.Truth), len(e.g.Sampled), len(e.g.Service))
	return nil
}
