package health

import (
	"testing"
	"time"
)

var t0 = time.Unix(1_700_000_000, 0)

// step is one call against key "k" at t0+at. A strike step checks
// Strike's verdict; a look step checks Quarantined. Both then check the
// recorded strike count.
type step struct {
	at      time.Duration
	strike  bool
	banned  bool
	strikes int
}

func strike(at time.Duration, banned bool, strikes int) step {
	return step{at: at, strike: true, banned: banned, strikes: strikes}
}

func look(at time.Duration, banned bool, strikes int) step {
	return step{at: at, banned: banned, strikes: strikes}
}

// TestBookPolicy is the one table for the strike → decay → escalating
// ban machine, at each caller's constants: internal/client bans at 2
// offenses per minute, internal/dist at 3 strikes per 4 lease TTLs,
// internal/gateway at 3 transport failures per 10 s.
func TestBookPolicy(t *testing.T) {
	const (
		s = time.Second
		m = time.Minute
	)
	repeat := func(n int, at time.Duration, threshold int) []step {
		var out []step
		for i := 1; i <= n; i++ {
			out = append(out, strike(at, i >= threshold, i))
		}
		return out
	}
	for _, tc := range []struct {
		name      string
		threshold int
		window    time.Duration
		steps     []step
	}{
		{"client bans at two offenses a minute", 2, m, []step{
			look(0, false, 0),
			strike(0, false, 1),
			look(0, false, 1),
			strike(s, true, 2),
			look(s, true, 2),
			strike(30*s, true, 3),    // while banned: escalates to two windows
			look(30*s+90*s, true, 3), // past the base window, inside the doubled one
			look(30*s+2*m, false, 3), // the ban ends exactly at its expiry
			strike(30*s+5*m, false, 1),
		}},
		{"dist quarantines at three strikes and doubles on the fourth", 3, m, []step{
			strike(0, false, 1),
			strike(s, false, 2),
			strike(2*s, true, 3),
			look(2*s+30*s, true, 3),
			look(2*s+m-1, true, 3),
			strike(42*s, true, 4),
			look(42*s+119*s, true, 4),
			look(42*s+121*s, false, 4),
			strike(42*s+30*m, false, 1), // forgiven: counts from one again
		}},
		{"gateway ejects at three failures in ten seconds", 3, 10 * s, []step{
			strike(0, false, 1),
			strike(4*s, false, 2),
			strike(8*s, true, 3),
			look(17*s, true, 3),
			look(18*s, false, 3),
			strike(18*s, true, 4), // the half-open probe failed: re-struck and doubled
			look(37*s, true, 4),
			look(38*s, false, 4),
		}},
		{"strikes further apart than the window never accumulate", 3, 10 * s, []step{
			strike(0, false, 1),
			strike(11*s, false, 1),
			strike(22*s, false, 1),
			strike(31*s, false, 2), // inside the window of the last one
		}},
		{"no forgiveness while the ban runs", 1, m, append(
			repeat(3, 0, 1), // 1, 2, 4 minutes: banned until t0+4m
			look(3*m, true, 3),
			strike(3*m, true, 4), // three windows after the last strike, still banned: escalates
			look(3*m+8*m-1, true, 4),
			look(3*m+8*m, false, 4),
			strike(3*m+8*m+1, true, 1), // the ban outlasts the window, so its end is the first moment to forgive
		)},
		{"escalation is capped at 256 windows", 1, s, append(
			repeat(20, 0, 1),
			look(256*s-1, true, 20),
			look(256*s, false, 20),
		)},
		{"a thousand strikes cannot overflow the shift", 1, m, append(
			repeat(1000, 0, 1),
			look(256*m-1, true, 1000),
			look(256*m, false, 1000),
		)},
		{"a window too wide to double bans as long as a Duration can say", 1, 1 << 56, append(
			repeat(9, 0, 1), // the ninth shifts 1<<56 by 8: zero
			look(1<<62, true, 9),
		)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBook[string](tc.threshold, tc.window)
			for i, st := range tc.steps {
				now := t0.Add(st.at)
				var got bool
				if st.strike {
					got = b.Strike("k", now)
					if q := b.Quarantined("k", now); q != got {
						t.Fatalf("step %d: Strike said %v, Quarantined says %v", i, got, q)
					}
				} else {
					got = b.Quarantined("k", now)
				}
				if got != st.banned {
					t.Fatalf("step %d (+%v, strike=%v): quarantined = %v, want %v", i, st.at, st.strike, got, st.banned)
				}
				if n := b.Strikes("k"); n != st.strikes {
					t.Fatalf("step %d (+%v): strikes = %d, want %d", i, st.at, n, st.strikes)
				}
				if b.Quarantined("other", now) || b.Strikes("other") != 0 {
					t.Fatalf("step %d: an unknown key has a record", i)
				}
			}
		})
	}
}

func TestBookPrune(t *testing.T) {
	b := NewBook[string](2, time.Minute)
	b.Strike("once", t0)
	b.Strike("banned", t0)
	b.Strike("banned", t0)
	b.Strike("banned", t0) // banned for two windows
	for _, tc := range []struct {
		at   time.Duration
		want int
	}{
		{0, 2},
		{time.Minute, 2},               // "once" is exactly a window old: not yet past it
		{time.Minute + 1, 1},           // "once" decayed; "banned" still quarantined
		{2 * time.Minute, 1},           // quarantine ends now, not before
		{2*time.Minute + 1, 0},         // out of quarantine and a window past its last strike
		{2*time.Minute + time.Hour, 0}, // pruning an empty book is fine
	} {
		b.Prune(t0.Add(tc.at))
		if got := b.Len(); got != tc.want {
			t.Fatalf("after Prune at +%v: %d entries, want %d", tc.at, got, tc.want)
		}
	}
	// A pruned key starts over.
	if b.Strike("banned", t0.Add(time.Hour)) || b.Strikes("banned") != 1 {
		t.Fatal("a pruned key did not start from one strike")
	}
}

func TestBookLeastBanned(t *testing.T) {
	b := NewBook[int](1, time.Minute)
	b.Strike(0, t0)                      // until +1m
	b.Strike(1, t0.Add(-10*time.Second)) // until +50s
	b.Strike(2, t0)
	b.Strike(2, t0) // until +2m
	for _, tc := range []struct {
		name string
		keys []int
		want int
	}{
		{"soonest expiry wins", []int{0, 1, 2}, 1},
		{"order does not matter for distinct expiries", []int{2, 1, 0}, 1},
		{"subset", []int{2, 0}, 0},
		{"a key with no record has nothing to expire", []int{0, 1, 7}, 7},
		{"ties go to the first", []int{9, 7, 0}, 9},
		{"single", []int{2}, 2},
	} {
		if got := b.LeastBanned(tc.keys); got != tc.want {
			t.Errorf("%s: LeastBanned(%v) = %d, want %d", tc.name, tc.keys, got, tc.want)
		}
	}
}

// TestBookWarmKeyDoesNotAllocate: the book sits on the gateway's
// per-request routing path and the coordinator's per-grant one.
func TestBookWarmKeyDoesNotAllocate(t *testing.T) {
	names := NewBook[string](3, time.Minute)
	idx := NewBook[int](3, time.Minute)
	names.Strike("worker", t0)
	idx.Strike(1, t0)
	now := t0
	for name, f := range map[string]func(){
		"Strike(string)":      func() { now = now.Add(time.Second); names.Strike("worker", now) },
		"Quarantined(string)": func() { names.Quarantined("worker", now) },
		"Strike(int)":         func() { now = now.Add(time.Second); idx.Strike(1, now) },
		"Quarantined(int)":    func() { idx.Quarantined(1, now) },
		"Quarantined(absent)": func() { idx.Quarantined(5, now) },
	} {
		if n := testing.AllocsPerRun(200, f); n != 0 {
			t.Errorf("%s allocates %v times per call on a warm book", name, n)
		}
	}
}
