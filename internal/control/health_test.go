package control

import (
	"errors"
	"testing"
	"time"

	"auditherm/internal/monitor"
)

// loopMonitorConfig shortens the monitor's horizons so a two-day loop
// exercises warm-up, detection and escalation.
func loopMonitorConfig() monitor.Config {
	cfg := monitor.DefaultConfig()
	cfg.Windows = []int{4, 16}
	cfg.Warmup = 24 // 6 h of 15-min decisions
	cfg.MinStd = 0.02
	cfg.MinDwell = 2
	cfg.FaultyAfter = 4
	cfg.RecoverAfter = 6
	return cfg
}

// TestLoopHealthDetectsStaleSensor is the wiring test for the
// ground-truth residual path: a Sense layer freezes sensor 0 during a
// fault window (a stale-hold outage) and the attached monitor must
// alarm on that sensor — and only that sensor.
func TestLoopHealthDetectsStaleSensor(t *testing.T) {
	cfg := loopConfig(t, 2)
	nSensors := len(cfg.SensorPositions)
	names := make([]string, nSensors)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	m, err := monitor.New(names, loopMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Freeze sensor 0 at its reading from the fault onset: Tuesday
	// 10:00-13:00, well past warm-up and inside occupied hours where
	// the true temperature moves.
	faultStart := cfg.Start.Add(24*time.Hour + 10*time.Hour)
	faultEnd := faultStart.Add(3 * time.Hour)
	var held float64
	haveHeld := false
	sensed := make([]float64, nSensors)
	cfg.Sense = func(tm time.Time, truth []float64) []float64 {
		copy(sensed, truth)
		if !tm.Before(faultStart) && tm.Before(faultEnd) {
			if !haveHeld {
				held = truth[0]
				haveHeld = true
			}
			sensed[0] = held
		}
		return sensed
	}
	cfg.Health = m

	if _, err := RunLoop(cfg, DefaultDeadband()); err != nil {
		t.Fatal(err)
	}

	wantUpdates := int64(cfg.Days * 24 * 4) // one per 15-min decision
	snaps := m.Snapshot()
	for i, s := range snaps {
		if s.Updates != wantUpdates {
			t.Errorf("sensor %d saw %d updates, want %d", i, s.Updates, wantUpdates)
		}
		if i == 0 {
			if s.Alarms == 0 {
				t.Error("frozen sensor raised no alarms")
			}
		} else if s.Alarms != 0 {
			t.Errorf("healthy sensor %d raised %d alarms", i, s.Alarms)
		}
	}
	// The fault escalated past Healthy on sensor 0 at some point.
	if snaps[0].State == monitor.Healthy && snaps[0].AlarmStreak == 0 && snaps[0].Alarms == 0 {
		t.Error("frozen sensor never left Healthy")
	}
}

func TestLoopHealthMonitorSizeMismatch(t *testing.T) {
	cfg := loopConfig(t, 1)
	m, err := monitor.New([]string{"only-one"}, loopMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Health = m
	if _, err := RunLoop(cfg, DefaultDeadband()); !errors.Is(err, ErrBadConfig) {
		t.Errorf("err = %v, want ErrBadConfig", err)
	}
}
