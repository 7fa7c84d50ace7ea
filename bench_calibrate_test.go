// Calibrated-versus-default planner benchmarks: the same all-reduce on
// the same live transport, planned once with the built-in ParagonLike
// guesses and once with a profile measured on that transport moments
// before, so the crossover placement on chan and TCP can be inspected
// with `go test -bench CalibratedPlanner`; the deterministic win
// assertion lives in calibrate_test.go.
package icc_test

import (
	"fmt"
	"sync"
	"testing"

	icc "repro"
)

type benchWorld interface {
	Run(func(c *icc.Comm) error) error
}

// calibrateWorld runs one calibration collective on a fresh world of the
// given transport and returns rank 0's fitted profile.
func calibrateWorld(b *testing.B, mk func() benchWorld) *icc.Profile {
	b.Helper()
	var mu sync.Mutex
	var prof *icc.Profile
	err := mk().Run(func(c *icc.Comm) error {
		p, err := icc.Calibrate(c, icc.CalibrateOptions{
			Sizes: []int{256, 4096, 65536},
			Reps:  3,
		})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			prof = p
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return prof
}

func benchPlannedAllReduce(b *testing.B, w benchWorld, bytes int) {
	send := make([]byte, bytes)
	recv := make([]byte, bytes)
	b.SetBytes(int64(bytes))
	b.ResetTimer()
	err := w.Run(func(c *icc.Comm) error {
		for i := 0; i < b.N; i++ {
			if err := c.AllReduce(send, recv, bytes, icc.Uint8, icc.Sum); err != nil {
				return err
			}
		}
		return nil
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCalibratedPlanner: {transport}/{default|calibrated}/n{bytes}.
// The default legs plan with ParagonLike guesses; the calibrated legs
// carry a profile probed on the same transport and report its fitted
// constants as metrics.
func BenchmarkCalibratedPlanner(b *testing.B) {
	transports := []struct {
		name string
		p    int
		mk   func(opts ...icc.Option) benchWorld
	}{
		{"chan", 8, func(opts ...icc.Option) benchWorld { return icc.NewChannelWorld(8, opts...) }},
		{"tcp", 4, func(opts ...icc.Option) benchWorld { return icc.NewTCPWorld(4, opts...) }},
	}
	for _, tr := range transports {
		b.Run(tr.name, func(b *testing.B) {
			prof := calibrateWorld(b, func() benchWorld { return tr.mk() })
			for _, n := range []int{1 << 10, 1 << 18} {
				b.Run(fmt.Sprintf("default/n%d", n), func(b *testing.B) {
					benchPlannedAllReduce(b, tr.mk(), n)
				})
				b.Run(fmt.Sprintf("calibrated/n%d", n), func(b *testing.B) {
					benchPlannedAllReduce(b, tr.mk(icc.WithCalibration(prof)), n)
					b.ReportMetric(prof.Machine.Alpha*1e6, "alpha-us")
					b.ReportMetric(1/prof.Machine.Beta/1e6, "MBps")
				})
			}
		})
	}
}
