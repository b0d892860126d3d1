package bdd

import (
	"fmt"
	"math/rand"
	"testing"
)

// truth is a boolean function over n variables as its truth table: entry
// x is the value under the assignment giving variable v the value of bit v
// of x. It is the brute-force oracle for the kernel tests below.
type truth []bool

func lit(n, v int) truth {
	t := make(truth, 1<<n)
	for x := range t {
		t[x] = x>>v&1 == 1
	}
	return t
}

func constant(n int, val bool) truth {
	t := make(truth, 1<<n)
	for x := range t {
		t[x] = val
	}
	return t
}

func (t truth) zip(u truth, op func(a, b bool) bool) truth {
	r := make(truth, len(t))
	for x := range t {
		r[x] = op(t[x], u[x])
	}
	return r
}

func (t truth) not() truth {
	r := make(truth, len(t))
	for x := range t {
		r[x] = !t[x]
	}
	return r
}

func ite(c, t, e truth) truth {
	r := make(truth, len(c))
	for x := range c {
		if c[x] {
			r[x] = t[x]
		} else {
			r[x] = e[x]
		}
	}
	return r
}

func (t truth) exists(vars []int) truth {
	r := append(truth(nil), t...)
	for _, v := range vars {
		next := make(truth, len(r))
		for x := range r {
			next[x] = r[x] || r[x^1<<v]
		}
		r = next
	}
	return r
}

// replace is Replace's meaning: variable v of t reads the value of m[v].
func (t truth) replace(m []int) truth {
	r := make(truth, len(t))
	for x := range t {
		y := 0
		for v, to := range m {
			y |= (x >> to & 1) << v
		}
		r[x] = t[y]
	}
	return r
}

func (t truth) restrict(v int, val bool) truth {
	r := make(truth, len(t))
	for x := range t {
		y := x &^ (1 << v)
		if val {
			y |= 1 << v
		}
		r[x] = t[y]
	}
	return r
}

// agrees reports whether BDD r denotes the function t, evaluating r under
// every assignment.
func agrees(f *Factory, r Ref, t truth) bool {
	for x, want := range t {
		n := r
		for n >= 2 {
			if x>>f.Level(n)&1 == 1 {
				n = f.High(n)
			} else {
				n = f.Low(n)
			}
		}
		if (n == True) != want {
			return false
		}
	}
	return true
}

// kernelOracle runs ops on one factory and its truth-table shadow side by
// side, checking every result. Replace is only ever applied through
// renamePair, which first quantifies away the renaming's targets so the
// renaming is order-preserving on the support.
type kernelOracle struct {
	t       testing.TB
	f       *Factory
	n       int
	refs    []Ref
	tts     []truth
	varSets []VarSet
	setVars [][]int
	evens   []int // even variables with an odd successor
	odds    []int // their successors
	toOdd   Perm  // 2k -> 2k+1
	toEven  Perm  // 2k+1 -> 2k
	ops     int
}

func newKernelOracle(t testing.TB, n int, sets [][]int) *kernelOracle {
	o := &kernelOracle{t: t, f: NewFactory(n), n: n}
	o.push(False, constant(n, false))
	o.push(True, constant(n, true))
	for v := 0; v < n; v++ {
		o.push(o.f.Var(v), lit(n, v))
		o.push(o.f.NVar(v), lit(n, v).not())
	}
	for _, vs := range sets {
		o.varSets = append(o.varSets, o.f.NewVarSet(vs...))
		o.setVars = append(o.setVars, vs)
	}
	up, down := map[int]int{}, map[int]int{}
	for v := 0; v+1 < n; v += 2 {
		o.evens = append(o.evens, v)
		o.odds = append(o.odds, v+1)
		up[v], down[v+1] = v+1, v
	}
	o.toOdd, o.toEven = o.f.NewPerm(up), o.f.NewPerm(down)
	return o
}

func (o *kernelOracle) push(r Ref, t truth) {
	o.refs = append(o.refs, r)
	o.tts = append(o.tts, t)
}

func (o *kernelOracle) check(what string, r Ref, t truth) {
	o.t.Helper()
	o.ops++
	if !agrees(o.f, r, t) {
		o.t.Fatalf("op %d (%s): BDD disagrees with its truth table", o.ops, what)
	}
}

func identityMap(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// step applies operation op (taken modulo the op count) to pool entries
// i and j, checks the result and adds it to the pool. k selects ITE's
// third operand (modulo the pool size), the var set, or the Restrict or
// Replace parameters.
func (o *kernelOracle) step(op, i, j, k int) {
	o.t.Helper()
	f := o.f
	a, b, c := o.refs[i], o.refs[j], o.refs[k%len(o.refs)]
	ta, tb, tc := o.tts[i], o.tts[j], o.tts[k%len(o.refs)]
	var (
		r    Ref
		t    truth
		name string
	)
	switch op % 10 {
	case 0:
		name, r, t = "And", f.And(a, b), ta.zip(tb, func(x, y bool) bool { return x && y })
	case 1:
		name, r, t = "Or", f.Or(a, b), ta.zip(tb, func(x, y bool) bool { return x || y })
	case 2:
		name, r, t = "Xor", f.Xor(a, b), ta.zip(tb, func(x, y bool) bool { return x != y })
	case 3:
		name, r, t = "Diff", f.Diff(a, b), ta.zip(tb, func(x, y bool) bool { return x && !y })
	case 4:
		name, r, t = "Not", f.Not(a), ta.not()
	case 5:
		name, r, t = "ITE", f.ITE(a, b, c), ite(ta, tb, tc)
	case 6:
		s := k % len(o.varSets)
		name, r, t = fmt.Sprintf("Exists[%d]", s), f.Exists(a, o.varSets[s]), ta.exists(o.setVars[s])
	case 7:
		s := k % len(o.varSets)
		name = fmt.Sprintf("AndExists[%d]", s)
		r = f.AndExists(a, b, o.varSets[s])
		t = ta.zip(tb, func(x, y bool) bool { return x && y }).exists(o.setVars[s])
	case 8:
		v, val := k%o.n, k&1 == 1
		name, r, t = fmt.Sprintf("Restrict(%d,%v)", v, val), f.Restrict(a, v, val), ta.restrict(v, val)
	default:
		name, r, t = o.renamePair(a, ta, k&1 == 1)
	}
	o.check(name, r, t)
	o.push(r, t)
}

// renamePair quantifies away the odd (or even) variables of a pair-wise
// interleaving, then renames the other half onto them.
func (o *kernelOracle) renamePair(a Ref, ta truth, up bool) (string, Ref, truth) {
	from, to, p := o.evens, o.odds, o.toOdd
	if !up {
		from, to, p = o.odds, o.evens, o.toEven
	}
	f := o.f
	q := f.Exists(a, f.NewVarSet(to...))
	tq := ta.exists(to)
	o.check("Exists(rename targets)", q, tq)
	// Replace moves variable from[i] to to[i]: the result reads to[i]
	// where q read from[i].
	m := identityMap(o.n)
	for i := range from {
		m[from[i]] = to[i]
	}
	return "Replace", f.Replace(q, p), tq.replace(m)
}

// TestKernelCacheStressTruthTable interleaves every cached kernel op on
// one 12-variable factory, long enough to force at least two unique-table
// growths (so cached results are rehashed into the grown op caches and
// later hit there), and checks every result against brute-force
// evaluation over all 2^12 assignments.
func TestKernelCacheStressTruthTable(t *testing.T) {
	const n = 12
	o := newKernelOracle(t, n, [][]int{{0}, {1, 2, 3}, {0, 4, 8, 11}, {5, 6, 7, 8, 9, 10}, {11}})
	rnd := rand.New(rand.NewSource(7))
	const pool = 96
	for it := 0; it < 6000; it++ {
		size := len(o.refs)
		pick := func() int {
			// Mostly recent results, so functions grow complex and new
			// nodes keep coming; sometimes literals and old results.
			if rnd.Intn(4) == 0 {
				return rnd.Intn(size)
			}
			return max(0, size-1-rnd.Intn(min(size, pool)))
		}
		o.step(rnd.Intn(10), pick(), pick(), rnd.Intn(1<<16))
	}
	s := o.f.Stats()
	if s.Growths < 2 {
		t.Fatalf("%d unique-table growths (%d nodes), want at least 2", s.Growths, s.Nodes)
	}
	if s.Hits == 0 {
		t.Error("no op-cache hits recorded")
	}
	if s.CacheSlots < s.UniqueSlots>>cacheShift {
		t.Errorf("%d op-cache slots for %d unique slots", s.CacheSlots, s.UniqueSlots)
	}
	t.Logf("%d ops checked; %+v, hit rate %.3f", o.ops, s, s.HitRate())
}

// TestQuantifierCacheKeysDistinct checks that quantification results are
// keyed by the whole variable set. With a cache key that packed the set's
// id and a position into one 32-bit word, two different sets collided on
// a factory with 1024 or more variables, and the second Exists returned
// the first one's cached result.
func TestQuantifierCacheKeysDistinct(t *testing.T) {
	f := NewFactory(1100)
	r := f.And(f.Var(1030), f.Var(1031))
	all := make([]int, 1100)
	for i := range all {
		all[i] = i
	}
	everything := f.NewVarSet(all...)
	few := f.NewVarSet(0, 1, 2, 3, 4, 5, 1099)
	if got := f.Exists(r, everything); got != True {
		t.Fatalf("Exists(r, all vars) = %d, want True", got)
	}
	if got := f.Exists(r, few); got != r {
		t.Errorf("Exists(r, {0..5, 1099}) = %d, want r = %d", got, r)
	}
	if got := f.AndExists(r, True, everything); got != True {
		t.Fatalf("AndExists(r, True, all vars) = %d, want True", got)
	}
	if got := f.AndExists(r, True, few); got != r {
		t.Errorf("AndExists(r, True, {0..5, 1099}) = %d, want r = %d", got, r)
	}
}

func TestStatsCountsWork(t *testing.T) {
	f := NewFactory(8)
	if s := f.Stats(); s.Ops != 0 || s.Hits != 0 || s.Nodes != 2 || s.Growths != 0 {
		t.Fatalf("fresh factory stats %+v", s)
	}
	x := f.And(f.Var(0), f.Var(1))
	y := f.Or(x, f.Var(2))
	before := f.Stats()
	if f.Or(x, f.Var(2)) != y {
		t.Fatal("repeated Or changed its answer")
	}
	after := f.Stats()
	if after.Hits != before.Hits+1 || after.Ops != before.Ops {
		t.Errorf("repeated op: stats %+v -> %+v, want one more hit and no more ops", before, after)
	}
	if after.Ops != f.OpCount() {
		t.Errorf("Stats().Ops = %d, OpCount() = %d", after.Ops, f.OpCount())
	}
	if after.TableBytes <= 0 || after.UniqueSlots != initUniqueSize {
		t.Errorf("table sizes %+v", after)
	}
}

// FuzzKernelOps decodes the input into a short program over at most 8
// variables and checks every result against its truth table. The first
// byte picks the variable count; each following group of four bytes is
// one op and three operand selectors.
func FuzzKernelOps(f *testing.F) {
	f.Add([]byte{7, 0, 2, 3, 0, 5, 4, 5, 6, 6, 1, 2, 0x0f})
	f.Add([]byte{8, 2, 3, 4, 5, 9, 6, 6, 1, 7, 2, 9, 0xaa, 8, 3, 3, 3})
	f.Add([]byte{3, 5, 1, 2, 3, 4, 5, 5, 5, 9, 0, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		n := 1 + int(prog[0])%8
		prog = prog[1:]
		if len(prog) > 4*64 {
			prog = prog[:4*64]
		}
		evens := make([]int, 0, n)
		for v := 0; v < n; v += 2 {
			evens = append(evens, v)
		}
		o := newKernelOracle(t, n, [][]int{evens, {n - 1}, identityMap(n)})
		for len(prog) >= 4 {
			size := len(o.refs)
			o.step(int(prog[0]), int(prog[1])%size, int(prog[2])%size, int(prog[3]))
			prog = prog[4:]
		}
	})
}

// kernelSink keeps the benchmark's result live.
var kernelSink Ref

// headerSetWorkload is a fixed ACL-like header-set computation over 64
// variables (32 destination and 32 source address bits): first-match
// partitioning of 192 seeded prefix rules and the union of the permitted
// parts, then, as reachability does per edge, every rule's label applied
// to that union and the result projected onto destinations.
func headerSetWorkload(f *Factory) Ref {
	rnd := rand.New(rand.NewSource(1))
	prefix := func(base int) Ref {
		bits, plen := rnd.Uint32(), 2+rnd.Intn(15)
		r := True
		for i := plen - 1; i >= 0; i-- {
			if bits>>(31-i)&1 == 1 {
				r = f.And(f.Var(base+i), r)
			} else {
				r = f.And(f.NVar(base+i), r)
			}
		}
		return r
	}
	src := make([]int, 32)
	for i := range src {
		src[i] = 32 + i
	}
	srcVS := f.NewVarSet(src...)
	rules := make([]Ref, 192)
	rest, permitted := True, False
	for i := range rules {
		rules[i] = f.And(prefix(0), prefix(32))
		if i%3 != 2 {
			permitted = f.Or(permitted, f.And(rest, rules[i]))
		}
		rest = f.Diff(rest, rules[i])
	}
	out := False
	for _, rule := range rules {
		out = f.Or(out, f.Exists(f.And(permitted, f.Not(rule)), srcVS))
	}
	return out
}

// BenchmarkKernel times the header-set workload on a fresh factory per
// iteration and reports the kernel's op-cache hit rate and table bytes per
// allocated node.
func BenchmarkKernel(b *testing.B) {
	var s Stats
	for i := 0; i < b.N; i++ {
		f := NewFactory(64)
		kernelSink = headerSetWorkload(f)
		s = f.Stats()
	}
	b.ReportMetric(s.HitRate(), "hit-rate")
	b.ReportMetric(float64(s.TableBytes)/float64(s.Nodes), "bytes/node")
	b.ReportMetric(float64(s.Ops), "kernel-ops")
}
