package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// recordDigests answers every input any seed can choose — NET4's cold
// question, each change-validation edit, each service-mix request and
// the sweep — and writes the answer digests to path (digests.json). The
// independent oracles (traceroute replay, exact sweep counts) still run
// and a disagreement aborts the recording.
func recordDigests(path string) error {
	r := newRunner(1, 20, false)
	r.recording = make(digestTable)
	off := newTracer(false)

	texts4, hosts4, err := catalogTexts("NET4", "host")
	if err != nil {
		return err
	}
	coldRound(r, off, texts4)
	release()

	univ, err := editUniverse(texts4, hosts4, changeUniversePerKind)
	if err != nil {
		return err
	}
	warm, err := warmUpEdit(texts4, hosts4)
	if err != nil {
		return err
	}
	var edits []edit
	for k := 0; k < editKinds; k++ {
		edits = append(edits, univ[k]...)
	}
	// Fresh baselines every few edits bound the store's retention.
	const batch = 6
	for i := 0; i < len(edits); i += batch {
		base := warmBaseline(r, texts4, warm)
		validateSequence(r, off, base, edits[i:min(i+batch, len(edits))])
		release()
	}

	texts1, hosts1, err := catalogTexts("NET1", "Vlan")
	if err != nil {
		return err
	}
	u, err := newServiceUniverse(texts1, hosts1)
	if err != nil {
		return err
	}
	env, err := startService(texts1, u.reach[0])
	if err != nil {
		return err
	}
	reqs := append(append([]request(nil), u.reach...), u.service...)
	for _, e := range u.edits {
		reqs = append(reqs, request{Kind: reqWrite, Edit: e})
	}
	for i, q := range reqs {
		r.attempted++
		text, err := env.do(off, -1, q, fmt.Sprintf("record-w%d", i))
		if err != nil {
			r.fail("service-mix: %v", err)
			continue
		}
		r.checkDigest("service-mix", q.key(), text)
	}
	env.close()
	release()

	base1, err := newSweepBase(texts1)
	if err != nil {
		return err
	}
	sweepRound(r, off, base1)

	if r.failed > 0 {
		r.summary("record")
		return fmt.Errorf("%d oracle failures while recording", r.failed)
	}
	b, err := json.MarshalIndent(r.recording, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
