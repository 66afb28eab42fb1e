package fidelity

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// testMonitor builds a monitor with a small window and a 1ms tolerance
// so threshold arithmetic in the tests stays readable.
func testMonitor(nshards int) (*Monitor, *obs.Registry) {
	reg := obs.NewRegistry()
	m := New(nshards, Config{
		Tolerance: time.Millisecond,
		Window:    1000,
	}, nil, reg)
	return m, reg
}

// window drives one full evaluation window through the shard in a
// single Record call: fired=Window with `missed` misses and `lag` as
// the batch lag. Returns the resulting shard state.
func window(sh *Shard, missed int, lag time.Duration) State {
	if !sh.Record(1, int64(lag), 1000, missed) {
		panic("window did not close")
	}
	return sh.State()
}

// TestStateMachineEscalation walks the full escalation ladder by miss
// rate: healthy → degraded at 1%, → overrun at 25%, immediately.
func TestStateMachineEscalation(t *testing.T) {
	m, _ := testMonitor(1)
	sh := m.Shard(0)
	if st := window(sh, 0, 0); st != Healthy {
		t.Fatalf("clean window: %v, want healthy", st)
	}
	if st := window(sh, 9, 0); st != Healthy {
		t.Fatalf("0.9%% misses: %v, want healthy (threshold is 1%%)", st)
	}
	if st := window(sh, 10, 0); st != Degraded {
		t.Fatalf("1%% misses: %v, want degraded", st)
	}
	if st := window(sh, 250, 0); st != Overrun {
		t.Fatalf("25%% misses: %v, want overrun", st)
	}
	if m.State() != Overrun {
		t.Fatalf("server state %v, want overrun", m.State())
	}
}

// TestStateMachineLagEscalation escalates on window max-lag alone: a
// few catastrophically late deliveries must trip the machine even at a
// near-zero miss rate (8×tol → degraded, 64×tol → overrun).
func TestStateMachineLagEscalation(t *testing.T) {
	m, _ := testMonitor(1)
	sh := m.Shard(0)
	if st := window(sh, 0, 7*time.Millisecond); st != Healthy {
		t.Fatalf("7×tol lag: %v, want healthy", st)
	}
	if st := window(sh, 0, 8*time.Millisecond); st != Degraded {
		t.Fatalf("8×tol lag: %v, want degraded", st)
	}
	m2, _ := testMonitor(1)
	if st := window(m2.Shard(0), 0, 64*time.Millisecond); st != Overrun {
		t.Fatalf("64×tol lag: %v, want overrun straight from healthy", st)
	}
}

// TestStateMachineHysteresisAndStepDown pins recovery: a window must
// clear threshold×hysteresis to step down, overrun descends one level
// per clean window (never straight to healthy), and a shard hovering
// between the hysteresis floor and the threshold parks where it is.
func TestStateMachineHysteresisAndStepDown(t *testing.T) {
	m, _ := testMonitor(1)
	sh := m.Shard(0)
	window(sh, 250, 0) // → overrun
	if st := window(sh, 130, 0); st != Overrun {
		t.Fatalf("13%% ≥ 25%%×0.5: %v, want still overrun", st)
	}
	if st := window(sh, 0, 0); st != Degraded {
		t.Fatalf("clean window from overrun: %v, want degraded (one step)", st)
	}
	if st := window(sh, 8, 0); st != Degraded {
		t.Fatalf("0.8%% ≥ 1%%×0.5: %v, want still degraded", st)
	}
	if st := window(sh, 4, 0); st != Healthy {
		t.Fatalf("0.4%% < 1%%×0.5: %v, want healthy", st)
	}
	// Lag hysteresis: degraded holds while max lag sits above 8×tol×0.5.
	window(sh, 0, 8*time.Millisecond) // → degraded
	if st := window(sh, 0, 5*time.Millisecond); st != Degraded {
		t.Fatalf("5ms ≥ 4ms hysteresis floor: %v, want still degraded", st)
	}
	if st := window(sh, 0, 3*time.Millisecond); st != Healthy {
		t.Fatalf("3ms < 4ms hysteresis floor: %v, want healthy", st)
	}
}

// TestWindowClose pins Record's return value: true exactly when the
// accumulated fires reach the window size.
func TestWindowClose(t *testing.T) {
	m, _ := testMonitor(1)
	sh := m.Shard(0)
	for i := 0; i < 9; i++ {
		if sh.Record(1, 0, 100, 0) {
			t.Fatalf("window closed after %d of 1000 fires", (i+1)*100)
		}
	}
	if !sh.Record(1, 0, 100, 0) {
		t.Fatal("window did not close at 1000 fires")
	}
	if sh.Record(1, 0, 1, 0) {
		t.Fatal("fresh window closed after 1 fire")
	}
}

// TestWatermarkAndDrift pins the high-watermark's monotonicity and the
// EWMA drift's convergence toward a sustained lag.
func TestWatermarkAndDrift(t *testing.T) {
	m, _ := testMonitor(1)
	sh := m.Shard(0)
	sh.Record(1, int64(5*time.Millisecond), 1, 0)
	sh.Record(2, int64(2*time.Millisecond), 1, 0)
	if got := sh.Watermark(); got != 5*time.Millisecond {
		t.Fatalf("watermark %v after a lower lag, want 5ms", got)
	}
	sh.Record(3, int64(9*time.Millisecond), 1, 0)
	if got := sh.Watermark(); got != 9*time.Millisecond {
		t.Fatalf("watermark %v, want 9ms", got)
	}
	// DriftAlpha defaults to 1/16: after many identical observations the
	// EWMA must be within a few percent of the sustained lag.
	for i := 0; i < 200; i++ {
		sh.Record(int64(i), int64(time.Millisecond), 1, 0)
	}
	if d := sh.Drift(); d < 0.9*float64(time.Millisecond) || d > float64(9*time.Millisecond) {
		t.Fatalf("drift %v ns after sustained 1ms lag", d)
	}
}

// TestBreachDumpAndCallback pins the breach machinery: a worsening
// server state bumps the breach counter, snapshots the flight recorder
// (including the events that caused the breach), and fires the
// callback; recovery does neither.
func TestBreachDumpAndCallback(t *testing.T) {
	m, _ := testMonitor(1)
	var gotState State
	var gotDump *Dump
	calls := 0
	m.SetOnBreach(func(st State, d *Dump) { calls++; gotState, gotDump = st, d })

	sh := m.Shard(0)
	window(sh, 0, 0)
	if m.Breaches() != 0 || m.LastDump() != nil || calls != 0 {
		t.Fatal("clean window produced a breach")
	}
	window(sh, 300, 2*time.Millisecond) // healthy → overrun
	if m.Breaches() != 1 || calls != 1 {
		t.Fatalf("breaches=%d calls=%d, want 1/1", m.Breaches(), calls)
	}
	if gotState != Overrun || gotDump == nil || m.LastDump() != gotDump {
		t.Fatalf("callback state=%v dump=%p last=%p", gotState, gotDump, m.LastDump())
	}
	var haveMiss, haveShardTransition, haveServerTransition bool
	for _, ev := range gotDump.Events {
		switch {
		case ev.Kind == obs.EvDeadlineMiss && ev.Shard == 0:
			haveMiss = true
		case ev.Kind == obs.EvStateTransition && ev.Shard == 0:
			haveShardTransition = true
		case ev.Kind == obs.EvStateTransition && ev.Shard == -1:
			haveServerTransition = true
		}
	}
	if !haveMiss || !haveShardTransition || !haveServerTransition {
		t.Fatalf("dump missing causal events: miss=%v shard=%v server=%v (%d events)",
			haveMiss, haveShardTransition, haveServerTransition, len(gotDump.Events))
	}
	// Recovery: state falls, breach counter and dump stay put.
	window(sh, 0, 0)
	window(sh, 0, 0)
	if m.State() != Healthy {
		t.Fatalf("server state %v after two clean windows, want healthy", m.State())
	}
	if m.Breaches() != 1 || calls != 1 || m.LastDump() != gotDump {
		t.Fatal("recovery counted as a breach")
	}
}

// TestServerWideWorst pins the aggregation: the server-wide state is
// the maximum over shards, and each worsening of that maximum is one
// breach.
func TestServerWideWorst(t *testing.T) {
	m, _ := testMonitor(3)
	window(m.Shard(1), 20, 0) // shard 1 → degraded
	if m.State() != Degraded {
		t.Fatalf("server %v with one degraded shard", m.State())
	}
	window(m.Shard(2), 300, 0) // shard 2 → overrun
	if m.State() != Overrun {
		t.Fatalf("server %v with an overrun shard", m.State())
	}
	if m.Breaches() != 2 {
		t.Fatalf("breaches %d, want 2 (healthy→degraded, degraded→overrun)", m.Breaches())
	}
	// Shard 2 recovers to degraded; shard 1 still degraded → server
	// degraded.
	window(m.Shard(2), 0, 0)
	if m.State() != Degraded {
		t.Fatalf("server %v, want degraded (worst shard)", m.State())
	}
	if m.Breaches() != 2 {
		t.Fatalf("recovery bumped breaches to %d", m.Breaches())
	}
}

// TestInstrumentFamilies pins the metric families the smoke test and
// dashboards scrape, including two-digit shard labels.
func TestInstrumentFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	New(12, Config{}, nil, reg)
	names := strings.Join(reg.Names(), "\n")
	for _, want := range []string{
		"poem_health",
		"poem_health_breaches_total",
		`poem_shard_deadline_miss_total{shard="0"}`,
		`poem_shard_deadline_lag_ns{shard="0"}`,
		`poem_shard_deadline_watermark_ns{shard="11"}`,
		`poem_shard_deadline_drift_ns{shard="11"}`,
		`poem_shard_health{shard="11"}`,
	} {
		if !strings.Contains(names, want) {
			t.Errorf("registry missing %q:\n%s", want, names)
		}
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "NaN") {
		t.Errorf("fresh monitor scrape contains NaN:\n%s", b.String())
	}
}

// TestDefaults pins the documented zero-value behavior.
func TestDefaults(t *testing.T) {
	m := New(1, Config{}, nil, nil)
	if m.Tolerance() != DefaultTolerance {
		t.Fatalf("tolerance %v, want %v", m.Tolerance(), DefaultTolerance)
	}
	if m.cfg.Window != DefaultWindow {
		t.Fatalf("window %d, want %d", m.cfg.Window, DefaultWindow)
	}
	if m.rec.Cap() != obs.DefaultRecorderSize {
		t.Fatalf("recorder cap %d, want %d", m.rec.Cap(), obs.DefaultRecorderSize)
	}
	if m.State() != Healthy {
		t.Fatalf("fresh monitor state %v", m.State())
	}
	for _, tc := range []struct {
		st   State
		want string
	}{{Healthy, "healthy"}, {Degraded, "degraded"}, {Overrun, "overrun"}, {State(9), "unknown"}} {
		if got := tc.st.String(); got != tc.want {
			t.Errorf("State(%d).String() = %q, want %q", tc.st, got, tc.want)
		}
	}
}
