package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"repro/internal/ip4"
	"repro/internal/netgen"
)

// catalogTexts generates a catalog network (NET1, NET4, ...) and returns
// its device texts keyed by hostname plus its host-facing interfaces:
// those whose name starts with ifacePrefix and carry a /24 subnet, read
// from the generated configurations (not from the program's answers).
func catalogTexts(name, ifacePrefix string) (map[string]string, []hostIface, error) {
	var snap *netgen.Snapshot
	for _, sp := range netgen.Catalog() {
		if sp.Name == name {
			snap = sp.Gen()
		}
	}
	if snap == nil {
		return nil, nil, fmt.Errorf("no catalog network %s", name)
	}
	texts := make(map[string]string, len(snap.Devices))
	for _, dt := range snap.Devices {
		texts[dt.Hostname] = dt.Text
	}
	net, _ := snap.Parse()
	var hosts []hostIface
	for _, dn := range net.DeviceNames() {
		d := net.Devices[dn]
		for _, in := range d.InterfaceNames() {
			p, ok := d.Interfaces[in].Primary()
			if ok && p.Len == 24 && strings.HasPrefix(in, ifacePrefix) {
				hosts = append(hosts, hostIface{Device: dn, Iface: in, Subnet: p.Canonical()})
			}
		}
	}
	if len(hosts) == 0 {
		return nil, nil, fmt.Errorf("%s has no %s* /24 interfaces", name, ifacePrefix)
	}
	return texts, hosts, nil
}

// hostIface is one host-facing interface and its subnet.
type hostIface struct {
	Device, Iface string
	Subnet        ip4.Prefix
}

func (h hostIface) loc() string { return h.Device + "/" + h.Iface }

// Edit kinds.
const (
	editNullRoute = iota // static route sending another host subnet to Null0
	editUnused           // static route for a prefix nothing uses
	editShutHost         // shut the device's host-facing interface
	editKinds
)

var editKindNames = [editKinds]string{"null", "static", "shut"}

// unusedPrefix is the destination of the editUnused static route
// (TEST-NET-2: no generated network uses it).
const unusedPrefix = "198.51.100.0 255.255.255.0"

// edit is one single-device configuration change.
type edit struct {
	Key    string // kind:device, the digest key of its answer
	Device string
	Text   string // the device's full new configuration
}

// editUniverse builds perKind edits of each kind over devices spread
// evenly across hosts. It is independent of the seed, so every edit's
// answer has a recorded digest; seeds choose among these edits.
func editUniverse(texts map[string]string, hosts []hostIface, perKind int) ([editKinds][]edit, error) {
	var out [editKinds][]edit
	n := len(hosts)
	if perKind > n {
		perKind = n
	}
	for i := 0; i < perKind; i++ {
		h := hosts[i*n/perKind]
		partner := hosts[(i*n/perKind+n/2)%n]
		orig := texts[h.Device]
		for k := 0; k < editKinds; k++ {
			var text string
			var err error
			switch k {
			case editNullRoute:
				text, err = addStatic(orig, fmt.Sprintf("%s %s Null0", partner.Subnet.Addr, ip4.Mask(partner.Subnet.Len)))
			case editUnused:
				text, err = addStatic(orig, unusedPrefix+" Null0")
			case editShutHost:
				text, err = shutIface(orig, h.Iface)
			}
			if err != nil {
				return out, fmt.Errorf("%s edit on %s: %w", editKindNames[k], h.Device, err)
			}
			out[k] = append(out[k], edit{Key: editKindNames[k] + ":" + h.Device, Device: h.Device, Text: text})
		}
	}
	return out, nil
}

// addStatic appends "ip route <route>" to an IOS-style configuration.
func addStatic(text, route string) (string, error) {
	i := strings.LastIndex(text, "\nend")
	if i < 0 {
		return "", fmt.Errorf("no end line")
	}
	return text[:i] + "\nip route " + route + "\n!" + text[i:], nil
}

// shutIface adds "shutdown" to an IOS-style interface block.
func shutIface(text, iface string) (string, error) {
	hdr := "interface " + iface + "\n"
	i := strings.Index(text, hdr)
	if i < 0 {
		return "", fmt.Errorf("no interface %s", iface)
	}
	j := i + len(hdr)
	return text[:j] + " shutdown\n" + text[j:], nil
}

// changeSequence draws perKind distinct edits of each kind from the
// universe and shuffles them, all from seed. The kind mix is fixed so
// that every seed does the same amount of each kind of work.
func changeSequence(univ [editKinds][]edit, perKind int, seed int64) []edit {
	rng := rand.New(rand.NewSource(seed))
	var seq []edit
	for k := 0; k < editKinds; k++ {
		perm := rng.Perm(len(univ[k]))
		for i := 0; i < perKind; i++ {
			seq = append(seq, univ[k][perm[i%len(perm)]])
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// Service request kinds.
const (
	reqReach   = "reachability"
	reqService = "service-reachable"
	reqWrite   = "write"
)

// request is one client operation against the service.
type request struct {
	Kind  string
	Query string // URL query of a read
	Edit  edit   // the change a write validates
}

// key identifies the request's answer in the digest table.
func (q request) key() string {
	if q.Kind == reqWrite {
		return "compare " + q.Edit.Key
	}
	return q.Kind + " " + q.Query
}

// serviceUniverse is every request a service-mix client may send.
type serviceUniverse struct {
	reach, service []request
	edits          []edit
}

// Universe sizes: large enough that a 20-second session's fresh draws
// never repeat (see serviceSequences).
const (
	reachUniverse        = 96
	serviceQueryUniverse = 48
	serviceEditsPer      = 12 // per edit kind
)

var servicePorts = []string{"80", "443", "22", "445"}

func newServiceUniverse(texts map[string]string, hosts []hostIface) (serviceUniverse, error) {
	var u serviceUniverse
	n := len(hosts)
	seen := make(map[string]bool)
	for i := 0; len(u.reach) < reachUniverse && i < 4*reachUniverse; i++ {
		src, dst := hosts[(i*37)%n], hosts[(i*53+11)%n]
		q := url.Values{"src": {src.loc()}, "dst": {dst.Subnet.String()}}.Encode()
		if !seen[q] {
			seen[q] = true
			u.reach = append(u.reach, request{Kind: reqReach, Query: q})
		}
	}
	for i := 0; len(u.service) < serviceQueryUniverse && i < 4*serviceQueryUniverse; i++ {
		dst, client := hosts[(i*29+3)%n], hosts[(i*41+7)%n]
		q := url.Values{"dst": {dst.Subnet.String()}, "port": {servicePorts[i%len(servicePorts)]},
			"client": {client.loc()}}.Encode()
		if !seen[q] {
			seen[q] = true
			u.service = append(u.service, request{Kind: reqService, Query: q})
		}
	}
	univ, err := editUniverse(texts, hosts, serviceEditsPer)
	if err != nil {
		return u, err
	}
	for k := 0; k < editKinds; k++ {
		u.edits = append(u.edits, univ[k]...)
	}
	sort.Slice(u.edits, func(i, j int) bool { return u.edits[i].Key < u.edits[j].Key })
	return u, nil
}

// Service mix shares: 60% reachability, 25% service-reachable, 15%
// writes (edit-as, compare, delete); repeatShare of each read kind
// exactly repeats an earlier request of the same client.
const (
	servicePct  = 25
	writePct    = 15
	repeatShare = 0.4
)

// serviceSequences derives each client's request sequence from seed.
// Every client gets the same kind mix; fresh reads and writes are drawn
// without replacement from a seeded permutation of the universe shared by
// all clients (cycling only when exhausted), and repeats re-send one of
// the client's own earlier reads of the same kind, so they hit the
// server's per-(source, header space) memo.
func serviceSequences(u serviceUniverse, clients, perClient int, seed int64) [][]request {
	rng := rand.New(rand.NewSource(seed))
	fresh := map[string]*drawer{
		reqReach:   newDrawer(rng, u.reach),
		reqService: newDrawer(rng, u.service),
	}
	editPerm := rng.Perm(len(u.edits))
	nextEdit := 0
	nWrite := perClient * writePct / 100
	nService := perClient * servicePct / 100
	nReach := perClient - nWrite - nService
	out := make([][]request, clients)
	for c := range out {
		kinds := make([]string, 0, perClient)
		for _, kc := range []struct {
			kind string
			n    int
		}{{reqReach, nReach}, {reqService, nService}, {reqWrite, nWrite}} {
			for i := 0; i < kc.n; i++ {
				kinds = append(kinds, kc.kind)
			}
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		repeat := map[string][]bool{
			reqReach:   repeatFlags(rng, nReach),
			reqService: repeatFlags(rng, nService),
		}
		seen := map[string][]request{}
		seq := make([]request, 0, perClient)
		for _, k := range kinds {
			if k == reqWrite {
				seq = append(seq, request{Kind: reqWrite, Edit: u.edits[editPerm[nextEdit%len(editPerm)]]})
				nextEdit++
				continue
			}
			var q request
			if flags := repeat[k]; flags[len(seen[k])] {
				prev := seen[k]
				q = prev[rng.Intn(len(prev))]
			} else {
				q = fresh[k].next()
			}
			seen[k] = append(seen[k], q)
			seq = append(seq, q)
		}
		out[c] = seq
	}
	return out
}

// repeatFlags marks round(repeatShare*n) of n reads as repeats, never the
// first (a repeat needs an earlier read to repeat).
func repeatFlags(rng *rand.Rand, n int) []bool {
	flags := make([]bool, n)
	if n < 2 {
		return flags
	}
	reps := int(repeatShare*float64(n) + 0.5)
	for _, i := range rng.Perm(n - 1)[:min(reps, n-1)] {
		flags[i+1] = true
	}
	return flags
}

// drawer hands out a seeded permutation of requests, cycling when
// exhausted.
type drawer struct {
	items []request
	perm  []int
	pos   int
}

func newDrawer(rng *rand.Rand, items []request) *drawer {
	return &drawer{items: items, perm: rng.Perm(len(items))}
}

func (d *drawer) next() request {
	q := d.items[d.perm[d.pos%len(d.perm)]]
	d.pos++
	return q
}

// measuredRepeatShare is the share of reads across all sequences that
// exactly repeat an earlier read of the same client.
func measuredRepeatShare(seqs [][]request) (share float64, reads int) {
	reps := 0
	for _, seq := range seqs {
		seen := map[string]bool{}
		for _, q := range seq {
			if q.Kind == reqWrite {
				continue
			}
			reads++
			if seen[q.key()] {
				reps++
			}
			seen[q.key()] = true
		}
	}
	return ratio(float64(reps), float64(reads)), reads
}
