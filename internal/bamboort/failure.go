package bamboort

import (
	"time"

	"repro/internal/faultinject"
	"repro/internal/interp"
)

// SchedPolicy configures the concurrent scheduler. The zero value is the
// default policy: work stealing enabled, all other cores probed per idle
// episode, a 64-entry ready deque per core.
type SchedPolicy struct {
	// DisableStealing turns randomized work stealing off, reverting to
	// pure owner-dispatch (the pre-work-stealing protocol; useful for
	// comparing scheduling policies through the fidelity harness).
	DisableStealing bool
	// StealTries bounds how many victims an idle core probes per episode
	// (0 = all other cores).
	StealTries int
	// DequeCap bounds the per-core ready deque (0 = 64). Overflowing
	// candidates stay in the parameter sets and reappear on a later
	// refresh, so the cap sheds scheduler work, never program work.
	DequeCap int
	// Seed perturbs the per-core victim-selection RNGs (0 = 1).
	Seed int64
}

func (p SchedPolicy) dequeCap() int {
	if p.DequeCap <= 0 {
		return 64
	}
	return p.DequeCap
}

// FaultPolicy configures the failure-containment layer of the concurrent
// scheduler. The zero value contains panics (recover, roll back, retry up
// to 3 times) but injects no faults, applies no timeout, and disables the
// stall watchdog.
type FaultPolicy struct {
	// Injector, when non-nil, is consulted before every invocation attempt
	// and may inject a crash or a stall (see internal/faultinject).
	Injector faultinject.Injector
	// MaxRetries bounds re-dispatches of a failed invocation before the
	// executing core is poisoned and the run degrades to a sequential
	// drain (0 = 3, negative = no retries).
	MaxRetries int
	// RetryBackoff is the base delay before the first retry; it doubles
	// with each subsequent attempt (0 = 100µs).
	RetryBackoff time.Duration
	// InvocationTimeout bounds the dispatch-to-body-start time of one
	// attempt. Stalls injected by the fault hook that exceed it surface as
	// ErrTimeout failures and are retried (0 = disabled). Task bodies are
	// bounded separately by Options.MaxTaskCycles.
	InvocationTimeout time.Duration
	// StallTimeout arms the deadlock watchdog: if the run makes no
	// progress (no delivery, completion, or contained failure) for this
	// long while work is outstanding, it aborts with ErrDeadlock. Must
	// exceed the longest single invocation (0 = disabled).
	StallTimeout time.Duration
}

func (p FaultPolicy) maxRetries() int {
	switch {
	case p.MaxRetries == 0:
		return 3
	case p.MaxRetries < 0:
		return 0
	}
	return p.MaxRetries
}

func (p FaultPolicy) backoff(attempt int) time.Duration {
	d := p.RetryBackoff
	if d == 0 {
		d = 100 * time.Microsecond
	}
	for i := 1; i < attempt; i++ {
		d *= 2
		if d > 50*time.Millisecond {
			return 50 * time.Millisecond
		}
	}
	return d
}

// objSnapshot is one parameter object's guard-relevant state (flag word
// plus bound tag instances) at dispatch time.
type objSnapshot struct {
	obj   *interp.Object
	flags uint64
	tags  []*interp.Tag
}

// invSnapshot captures the pre-invocation state of an invocation's
// parameter objects so a contained failure can be rolled back. Field
// values are not snapshotted: faults inject before the task body runs, so
// a rolled-back attempt has no field effects (recovered mid-body panics
// restore the guard state that drives scheduling; their partial field
// writes are not retried — see DESIGN.md).
type invSnapshot []objSnapshot

// snapshotParams appends each parameter object's flags and tags to snap.
// objs is the invocation's deduplicated lock set; callers hold the locks.
func snapshotParams(snap invSnapshot, objs []*interp.Object) invSnapshot {
	for _, o := range objs {
		snap = append(snap, objSnapshot{obj: o, flags: o.Flags(), tags: o.Tags()})
	}
	return snap
}

// restore rolls every snapshotted object back to its recorded flag word
// and tag-binding set (clearing tags added since the snapshot and
// re-adding tags removed, so tag back references stay consistent).
// Callers hold the objects' parameter locks.
func (snap invSnapshot) restore() {
	for _, s := range snap {
		s.obj.SetFlagsWord(s.flags)
		was := map[*interp.Tag]bool{}
		for _, t := range s.tags {
			was[t] = true
		}
		for _, t := range s.obj.Tags() {
			if !was[t] {
				s.obj.ClearTag(t)
			}
		}
		for _, t := range s.tags {
			if !s.obj.HasTag(t) {
				s.obj.AddTag(t)
			}
		}
	}
}
