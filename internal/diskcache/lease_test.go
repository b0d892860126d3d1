package diskcache

import (
	"errors"
	"maps"
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutable time source shared by several Cache handles so
// lease-expiry scenarios run deterministically, without real sleeps.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// TestLeaseOrphanRaceSingleWinner: two live processes race to reclaim a
// crash-orphaned lease. The exclusive directory flock serializes the
// read-then-write, so exactly one racer wins; the other must observe the
// winner's fresh grant and back off with ErrLeaseHeld.
func TestLeaseOrphanRaceSingleWinner(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	dead := openT(t, dir, Options{})
	dead.SetClock(clk.Now)
	if _, err := dead.AcquireLease("cluster/coordinator", "coord-0", time.Second); err != nil {
		t.Fatal(err)
	}
	// The holder "crashes": never renews, never releases. Its grant
	// expires once the clock passes the ttl.
	clk.Advance(2 * time.Second)

	racers := []*Cache{openT(t, dir, Options{}), openT(t, dir, Options{})}
	owners := []string{"member-b", "member-c"}
	for _, c := range racers {
		c.SetClock(clk.Now)
	}
	errs := make([]error, len(racers))
	var wg sync.WaitGroup
	for i := range racers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = racers[i].AcquireLease("cluster/coordinator", owners[i], time.Minute)
		}(i)
	}
	wg.Wait()

	wins := 0
	for i, err := range errs {
		switch {
		case err == nil:
			wins++
		case errors.Is(err, ErrLeaseHeld):
		default:
			t.Fatalf("racer %d: unexpected error %v", i, err)
		}
	}
	if wins != 1 {
		t.Fatalf("orphan race produced %d winners, want exactly 1 (errs=%v)", wins, errs)
	}
}

// TestLeaseRenewalAcrossRecoveryScan: another process Opening the shared
// directory runs the lease recovery sweep; an unexpired lease must
// survive it, stay renewable by its holder, and keep excluding others.
func TestLeaseRenewalAcrossRecoveryScan(t *testing.T) {
	dir := t.TempDir()
	a := openT(t, dir, Options{})
	l, err := a.AcquireLease("cluster/coordinator", "coord-a", time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	// A second process starts up mid-lease: its Open sweeps only expired
	// and torn lease files.
	b := openT(t, dir, Options{})
	if st := b.Stats(); st.LeaseOrphans != 0 {
		t.Fatalf("recovery scan swept a live lease: %+v", st)
	}
	if err := l.Renew(time.Hour); err != nil {
		t.Fatalf("renew after recovery scan: %v", err)
	}
	if _, err := b.AcquireLease("cluster/coordinator", "coord-b", time.Hour); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("lease not held after scan+renew: %v", err)
	}
}

// TestLeaseStealWhileHolderAlive: stealing from a live, renewing holder
// must fail for as long as the grant is unexpired — and only once the
// holder truly lapses does the steal go through, at which point the old
// holder learns it via ErrLeaseLost.
func TestLeaseStealWhileHolderAlive(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := openT(t, dir, Options{})
	b := openT(t, dir, Options{})
	a.SetClock(clk.Now)
	b.SetClock(clk.Now)

	l, err := a.AcquireLease("cluster/coordinator", "coord-a", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The holder is alive and renewing: every steal attempt inside the
	// ttl must fail, including ones right after a renewal.
	for i := 0; i < 3; i++ {
		clk.Advance(500 * time.Millisecond)
		if err := l.Renew(time.Second); err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
		if _, err := b.AcquireLease("cluster/coordinator", "coord-b", time.Second); !errors.Is(err, ErrLeaseHeld) {
			t.Fatalf("steal from live holder succeeded at step %d: %v", i, err)
		}
	}
	// The holder stops renewing; after the ttl the steal succeeds and the
	// ex-holder's next Renew reports the loss.
	clk.Advance(2 * time.Second)
	if _, err := b.AcquireLease("cluster/coordinator", "coord-b", time.Second); err != nil {
		t.Fatalf("steal after expiry: %v", err)
	}
	if err := l.Renew(time.Second); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("ex-holder renew: want ErrLeaseLost, got %v", err)
	}
}

// TestLiveLeasesGeneration: the generation moves exactly when the live
// set under a prefix changes — a join, an expiry, a release, a rejoin —
// never on a re-read of an unchanged set, and two handles on one
// directory always agree on which set a generation names. Leases outside
// the prefix never count.
func TestLiveLeasesGeneration(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a, b := openT(t, dir, Options{}), openT(t, dir, Options{})
	a.SetClock(clk.Now)
	b.SetClock(clk.Now)
	seen := make(map[int64]map[string]string)
	read := func(c *Cache, want map[string]string) int64 {
		t.Helper()
		gen, holders, err := c.LiveLeases("m/")
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(holders, want) {
			t.Fatalf("holders %v, want %v", holders, want)
		}
		if prev, ok := seen[gen]; ok && !maps.Equal(prev, holders) {
			t.Fatalf("generation %d names both %v and %v", gen, prev, holders)
		}
		seen[gen] = holders
		return gen
	}

	if g := read(a, nil); g != 1 {
		t.Fatalf("empty directory generation %d, want 1", g)
	}
	if _, err := a.AcquireLease("other", "x", time.Hour); err != nil {
		t.Fatal(err)
	}
	if g := read(b, nil); g != 1 {
		t.Fatalf("a lease outside the prefix moved the generation to %d", g)
	}
	la, err := a.AcquireLease("m/a", "http://a", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AcquireLease("m/b", "http://b", 3*time.Second); err != nil {
		t.Fatal(err)
	}
	both := map[string]string{"a": "http://a", "b": "http://b"}
	g2 := read(a, both)
	if g := read(b, both); g != g2 || g2 != 2 {
		t.Fatalf("joins: generations %d/%d, want both 2", g2, g)
	}

	// a stops renewing: at exactly its expiry it is gone.
	clk.Advance(time.Second)
	onlyB := map[string]string{"b": "http://b"}
	if g := read(b, onlyB); g != 3 {
		t.Fatalf("expiry generation %d, want 3", g)
	}
	// a renews its own expired lease: readmitted at a higher generation.
	if err := la.Renew(time.Second); err != nil {
		t.Fatal(err)
	}
	if g := read(a, both); g != 4 {
		t.Fatalf("readmission generation %d, want 4", g)
	}
	if err := la.Release(); err != nil {
		t.Fatal(err)
	}
	if g := read(b, onlyB); g != 5 {
		t.Fatalf("release generation %d, want 5", g)
	}
	if g := read(a, onlyB); g != 5 {
		t.Fatalf("unchanged re-read moved the generation to %d", g)
	}
}
