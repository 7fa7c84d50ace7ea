// Benchmarks for the recovery path: the full fail-stop → abort → Agree →
// Shrink cycle, and the steady-state collective cost on the shrunken
// communicator (which should match a fresh world of the same size).
// `make benchall` smoke-runs them; the repo's measured recovery numbers
// are bench/'s survivor_power workload and recover.* ledger rows.
package icc_test

import (
	"errors"
	"testing"
	"time"

	icc "repro"
	"repro/internal/chantransport"
	"repro/internal/faultnet"
)

const (
	benchRecP      = 8
	benchRecVictim = 3
	benchRecBytes  = 1 << 10
)

// benchShrinkWorld spins a chan world with a fail-stop armed on the
// victim's first operation and runs body on every rank.
func benchShrinkWorld(b *testing.B, body func(c *icc.Comm) error) {
	b.Helper()
	inj := faultnet.New(faultnet.Config{FailStop: map[int]int{benchRecVictim: 0}})
	w, err := chantransport.NewWorld(benchRecP, chantransport.WithRecvTimeout(5*time.Second))
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Run(func(ep *chantransport.Endpoint) error {
		c, nerr := icc.New(inj.Wrap(ep))
		if nerr != nil {
			return nerr
		}
		if err := body(c); err != nil && !errors.Is(err, faultnet.ErrInjected) {
			return err
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShrink measures the whole recovery cycle: a rank fail-stops,
// the first collective aborts the world, and the survivors Agree on the
// failed set and Shrink to a successor communicator (verified with one
// all-reduce). A dead chan rank cannot be revived, so each iteration
// builds a fresh world; world construction rides inside the measurement,
// which keeps the number honest about what an application pays per
// failure.
func BenchmarkShrink(b *testing.B) {
	send := make([]byte, benchRecBytes)
	recv := make([]byte, benchRecBytes)
	for i := 0; i < b.N; i++ {
		benchShrinkWorld(b, func(c *icc.Comm) error {
			if err := c.AllReduce(send, recv, benchRecBytes, icc.Uint8, icc.Sum); err == nil {
				return errors.New("all-reduce survived an armed fail-stop")
			} else if errors.Is(err, faultnet.ErrInjected) {
				return err // victim
			}
			s, err := c.Shrink()
			if err != nil {
				return err
			}
			return s.AllReduce(send, recv, benchRecBytes, icc.Uint8, icc.Sum)
		})
	}
}

// BenchmarkPostShrinkAllReduce measures the steady-state all-reduce cost
// on a shrunken communicator: one kill → shrink up front, then b.N
// all-reduces on the survivor communicator. The one-time recovery
// amortizes away as b.N grows, so the per-op number is comparable to
// BenchmarkOneShotAllReduce on a fresh world of the survivor size — the
// successor communicator plans and caches like any other.
func BenchmarkPostShrinkAllReduce(b *testing.B) {
	send := make([]byte, benchRecBytes)
	recv := make([]byte, benchRecBytes)
	b.SetBytes(benchRecBytes)
	b.ResetTimer()
	benchShrinkWorld(b, func(c *icc.Comm) error {
		if err := c.AllReduce(send, recv, benchRecBytes, icc.Uint8, icc.Sum); err == nil {
			return errors.New("all-reduce survived an armed fail-stop")
		} else if errors.Is(err, faultnet.ErrInjected) {
			return err // victim
		}
		s, err := c.Shrink()
		if err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if err := s.AllReduce(send, recv, benchRecBytes, icc.Uint8, icc.Sum); err != nil {
				return err
			}
		}
		return nil
	})
}
