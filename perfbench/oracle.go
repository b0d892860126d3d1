package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/hdr"
	"repro/internal/traceroute"
)

// digests.json holds, per workload, the SHA-256 of the canonical
// rendering of every answer the workload can ask for, keyed by input
// (an edit, a request, or the workload's single fixed question). Seeds
// only choose and order inputs, so any seed is checked. Regenerate with
// --record after an intended answer change.
//
//go:embed digests.json
var digestsJSON []byte

type digestTable map[string]map[string]string

var recorded = func() digestTable {
	var t digestTable
	if err := json.Unmarshal(digestsJSON, &t); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err))
	}
	return t
}()

func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// checkDigest compares text's digest to the recorded one for (workload,
// key) and reports a mismatch as a failed operation.
func (r *runner) checkDigest(workload, key, text string) bool {
	if r.recording != nil {
		if r.recording[workload] == nil {
			r.recording[workload] = make(map[string]string)
		}
		r.recording[workload][key] = digest(text)
		return true
	}
	want, ok := recorded[workload][key]
	if !ok {
		r.fail("%s: no recorded digest for %q", workload, key)
		return false
	}
	if got := digest(text); got != want {
		r.fail("%s: answer digest for %q is %.12s, recorded %.12s", workload, key, got, want)
		return false
	}
	return true
}

// sortFlows orders reachability answers by source, the canonical order
// their rendering is digested in.
func sortFlows(fs []core.FlowResult) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].Source, fs[j].Source
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		return a.Iface < b.Iface
	})
}

// crossCheckTraceroute replays each answer's positive and negative
// example through the independent concrete traceroute engine (paper
// §4.3.2): a positive example must be delivered on some path and a
// negative one must fail on some path, as the BDD answer says. It
// returns the number of examples checked and a description of each
// disagreement.
func crossCheckTraceroute(s *core.Snapshot, flows []core.FlowResult) (checked int, bad []string) {
	dp := s.DataPlane()
	for _, fr := range flows {
		src := fr.Source
		vrf := s.Net.Devices[src.Device].Interfaces[src.Iface].VRFOrDefault()
		check := func(p hdr.Packet, delivered bool) {
			checked++
			// A fresh engine per trace: firewall sessions installed by
			// one trace must not influence the next.
			for _, t := range traceroute.New(dp).Run(src.Device, vrf, src.Iface, p) {
				if t.Disposition.Success() == delivered {
					return
				}
			}
			bad = append(bad, fmt.Sprintf("%s/%s: BDD says %v delivered=%v, traceroute disagrees",
				src.Device, src.Iface, p, delivered))
		}
		if fr.HasPositive {
			check(fr.PositiveExample, true)
		}
		if fr.HasNegative {
			check(fr.NegativeExample, false)
		}
	}
	return checked, bad
}
