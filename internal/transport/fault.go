package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/globalmmcs/globalmmcs/internal/event"
)

// Fault is one entry of a deterministic fault schedule, applied to a
// conn's send path in order. After counts successful sends before the
// fault arms; exactly one of the actions then fires:
//
//   - Cut: close the conn (connection kill mid-stream).
//   - Drop > 0: silently lose the next Drop sends (a loss burst — the
//     sender observes success, the wire carries nothing).
//   - Stall > 0: block the next send for the duration before letting
//     it through (a partition window / stall injection).
//
// Schedules compose: {After: 10, Drop: 3} then {After: 5, Cut: true}
// sends 10, loses 3, sends 5 more, then kills the conn.
type Fault struct {
	After int
	Drop  int
	Stall time.Duration
	Cut   bool
}

// FaultConn wraps a Conn with a scripted fault schedule on its send
// path, for chaos tests and the churn benchmark: the schedule is fixed
// up front, so a failure scenario replays identically every run. The
// receive path is passed through untouched (burst-capable when the
// inner conn is). Safe for the usual conn concurrency (one sender, one
// receiver).
type FaultConn struct {
	inner Conn

	mu      sync.Mutex
	faults  []Fault
	clean   int // successful sends since the last fault fired
	dropped uint64

	killed atomic.Bool
}

// InjectFaults wraps conn with the given schedule.
func InjectFaults(conn Conn, faults ...Fault) *FaultConn {
	return &FaultConn{inner: conn, faults: append([]Fault(nil), faults...)}
}

// Kill closes the underlying conn immediately — the out-of-band
// "pull the cable now" used when the test choreography, not a send
// count, decides the moment. Idempotent.
func (f *FaultConn) Kill() {
	if f.killed.CompareAndSwap(false, true) {
		f.inner.Close()
	}
}

// Killed reports whether the conn was cut (by schedule or Kill).
func (f *FaultConn) Killed() bool { return f.killed.Load() }

// Dropped reports how many sends the schedule silently lost.
func (f *FaultConn) Dropped() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// faultAction is the resolved outcome of one send against the schedule.
type faultAction int

const (
	actSend faultAction = iota
	actDrop
	actCut
)

// step advances the schedule for one send attempt and returns the
// action plus any stall to apply first.
func (f *FaultConn) step() (faultAction, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.faults) == 0 {
		return actSend, 0
	}
	fa := &f.faults[0]
	if f.clean < fa.After {
		f.clean++
		return actSend, 0
	}
	switch {
	case fa.Cut:
		f.faults = f.faults[1:]
		return actCut, 0
	case fa.Drop > 0:
		fa.Drop--
		f.dropped++
		if fa.Drop == 0 {
			f.faults = f.faults[1:]
			f.clean = 0
		}
		return actDrop, 0
	case fa.Stall > 0:
		d := fa.Stall
		f.faults = f.faults[1:]
		f.clean = 1 // the stalled send itself goes through
		return actSend, d
	default:
		// Empty fault: skip it.
		f.faults = f.faults[1:]
		f.clean = 1
		return actSend, 0
	}
}

// Send applies the schedule, then delegates.
func (f *FaultConn) Send(e *event.Event) error {
	if f.killed.Load() {
		return ErrClosed
	}
	act, stall := f.step()
	switch act {
	case actCut:
		f.Kill()
		return ErrClosed
	case actDrop:
		return nil
	}
	if stall > 0 {
		time.Sleep(stall)
	}
	return f.inner.Send(e)
}

// Recv delegates to the inner conn.
func (f *FaultConn) Recv() (*event.Event, error) { return f.inner.Recv() }

// RecvBurst delegates to the inner conn.
func (f *FaultConn) RecvBurst(dst []*event.Event, max int) ([]*event.Event, error) {
	return RecvBurst(f.inner, dst, max)
}

// Close closes the inner conn.
func (f *FaultConn) Close() error {
	f.killed.Store(true)
	return f.inner.Close()
}

// Label describes the wrapped conn.
func (f *FaultConn) Label() string { return "fault:" + f.inner.Label() }

// SendBlocks reports whether the remaining schedule can stall senders.
func (f *FaultConn) SendBlocks() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, fa := range f.faults {
		if fa.Stall > 0 {
			return true
		}
	}
	return false
}
