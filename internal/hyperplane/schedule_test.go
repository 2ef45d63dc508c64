package hyperplane

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/nestgen"
	"repro/internal/vec"
)

// scheduleWalk is the schedule the closed form replaced: Π·x at every
// vertex of V.
func scheduleWalk(st *loop.Structure, pi vec.Int) (Schedule, error) {
	if err := Check(pi, st.D); err != nil {
		return Schedule{}, err
	}
	if len(st.V) == 0 {
		return Schedule{}, errors.New("hyperplane: empty index set")
	}
	s := Schedule{Pi: pi.Clone(), MinTime: pi.Dot(st.V[0]), MaxTime: pi.Dot(st.V[0])}
	for _, p := range st.V {
		t := pi.Dot(p)
		s.MinTime, s.MaxTime = min(s.MinTime, t), max(s.MaxTime, t)
	}
	return s, nil
}

func checkScheduleAgainstWalk(t *testing.T, name string, st *loop.Structure, pi vec.Int) {
	t.Helper()
	got, gerr := NewSchedule(st, pi)
	want, werr := scheduleWalk(st, pi)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%s Π=%v: NewSchedule error %v, walk %v", name, pi, gerr, werr)
	}
	if got.MinTime != want.MinTime || got.MaxTime != want.MaxTime || !got.Pi.Equal(want.Pi) {
		t.Fatalf("%s Π=%v: schedule [%d, %d], walk [%d, %d]", name, pi, got.MinTime, got.MaxTime, want.MinTime, want.MaxTime)
	}
}

// TestScheduleMatchesWalk compares NewSchedule's MinTime and MaxTime with
// the per-point walk on every built-in kernel under its own Π, and on
// generated nests of every shape under generated Π (negative entries and
// non-primitive Π included), empty index sets among them.
func TestScheduleMatchesWalk(t *testing.T) {
	for _, name := range kernels.Names() {
		for _, size := range []int64{1, 4, 9} {
			k, err := kernels.Lookup(name, size)
			if err != nil {
				t.Fatal(err)
			}
			st, err := k.Structure()
			if err != nil {
				t.Fatal(err)
			}
			checkScheduleAgainstWalk(t, name, st, k.Pi)
		}
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 400; trial++ {
		kind := nestgen.Kinds[trial%len(nestgen.Kinds)]
		n := nestgen.Nest(rng, kind, 2+trial/4%2)
		deps := nestgen.Deps(rng, n.Dims, 1)
		pi := nestgen.Pi(rng, deps)
		if pi == nil {
			continue
		}
		st, err := loop.NewStructure(n, deps...)
		if err != nil {
			t.Fatal(err)
		}
		checkScheduleAgainstWalk(t, kind.String(), st, pi)
	}
}
