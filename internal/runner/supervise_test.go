package runner

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// A panicking leg must not abort the sweep: every other leg completes, the
// failed slot holds the zero value, and the LegError carries the item
// index and a stack trace naming the panic site.
func TestSupervisedMapPanicIsolation(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	out, errs := SupervisedMap(items, Policy{}, func(i, v int) (int, error) {
		if v == 3 {
			panic("boom at three")
		}
		return v * 10, nil
	})
	if len(out) != len(items) {
		t.Fatalf("got %d results, want %d", len(out), len(items))
	}
	for i, v := range items {
		want := v * 10
		if v == 3 {
			want = 0
		}
		if out[i] != want {
			t.Errorf("out[%d] = %d, want %d", i, out[i], want)
		}
	}
	if len(errs) != 1 {
		t.Fatalf("got %d LegErrors, want 1: %v", len(errs), errs)
	}
	le := errs[0]
	if le.Index != 3 {
		t.Errorf("LegError.Index = %d, want 3", le.Index)
	}
	if !le.Panicked {
		t.Error("LegError.Panicked = false, want true")
	}
	if !errors.Is(le, ErrLegPanic) {
		t.Errorf("errors.Is(le, ErrLegPanic) = false; err = %v", le.Err)
	}
	if !strings.Contains(le.Err.Error(), "boom at three") {
		t.Errorf("LegError.Err = %v, want it to carry the panic value", le.Err)
	}
	if !strings.Contains(le.Stack, "supervise_test.go") {
		t.Errorf("LegError.Stack does not name the panic site:\n%s", le.Stack)
	}
}

// A leg that blocks past its deadline is abandoned; the sweep still
// returns every other leg's result plus a TimedOut LegError.
func TestSupervisedMapDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	items := []int{0, 1, 2, 3}
	out, errs := SupervisedMap(items, Policy{Deadline: 50 * time.Millisecond},
		func(i, v int) (int, error) {
			if v == 2 {
				<-release // wedged until the test ends
			}
			return v + 100, nil
		})
	for i, v := range items {
		want := v + 100
		if v == 2 {
			want = 0
		}
		if out[i] != want {
			t.Errorf("out[%d] = %d, want %d", i, out[i], want)
		}
	}
	if len(errs) != 1 {
		t.Fatalf("got %d LegErrors, want 1: %v", len(errs), errs)
	}
	le := errs[0]
	if le.Index != 2 || !le.TimedOut {
		t.Errorf("LegError = %+v, want Index=2 TimedOut=true", le)
	}
	if !errors.Is(le, ErrLegTimeout) {
		t.Errorf("errors.Is(le, ErrLegTimeout) = false; err = %v", le.Err)
	}
}

// A sweep with no failures returns a nil error slice and exactly Map's
// results.
func TestSupervisedMapCleanRun(t *testing.T) {
	items := []int{5, 6, 7}
	out, errs := SupervisedMap(items, Policy{}, func(i, v int) (int, error) { return v * v, nil })
	if errs != nil {
		t.Fatalf("errs = %v, want nil", errs)
	}
	want := []int{25, 36, 49}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %d, want %d", i, out[i], want[i])
		}
	}
}

// fakeJournal is an in-memory Journal of int results; a non-nil refuse
// is returned by every Put.
type fakeJournal struct {
	mu     sync.Mutex
	cells  map[string]int
	refuse error
}

func (j *fakeJournal) Get(cell string, out any) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	v, ok := j.cells[cell]
	if ok {
		*out.(*int) = v
	}
	return ok
}

func (j *fakeJournal) Put(cell string, v any) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.refuse != nil {
		return j.refuse
	}
	j.cells[cell] = v.(int)
	return nil
}

// A journaled cell is answered even once the campaign is interrupted; an
// unjournaled one is skipped after the interrupt, and one that runs is
// recorded.
func TestCellsResumeAndInterrupt(t *testing.T) {
	SetParallelism(1) // cells in key order, so the interrupt lands after "a"
	defer SetParallelism(0)
	keys := []string{"a", "b", "c", "d", "e"}
	j := &fakeJournal{cells: map[string]int{"b": 20, "d": 40}}
	var ran []int
	run := func(i int) int {
		ran = append(ran, i)
		return i + 1
	}
	polls := 0
	out, done, tally := Cells(Campaign{Journal: j, Interrupted: func() bool {
		polls++
		return polls > 1
	}}, keys, run)
	if !reflect.DeepEqual(ran, []int{0}) {
		t.Errorf("ran cells %v, want [0]", ran)
	}
	if want := []int{1, 20, 0, 40, 0}; !reflect.DeepEqual(out, want) {
		t.Errorf("out = %v, want %v", out, want)
	}
	if want := []bool{true, true, false, true, false}; !reflect.DeepEqual(done, want) {
		t.Errorf("done = %v, want %v", done, want)
	}
	if tally.Resumed != 2 || tally.Skipped != 2 || tally.Errors != nil {
		t.Errorf("tally = %+v, want 2 resumed, 2 skipped, no errors", tally)
	}
	if j.cells["a"] != 1 {
		t.Errorf("journal holds a=%d, want the run's result 1", j.cells["a"])
	}

	// Interrupted before the first cell: the journal answers what it
	// holds and nothing runs.
	ran = nil
	out, done, tally = Cells(Campaign{Journal: j, Interrupted: func() bool { return true }}, keys, run)
	if ran != nil {
		t.Errorf("interrupted campaign ran cells %v", ran)
	}
	if want := []int{1, 20, 0, 40, 0}; !reflect.DeepEqual(out, want) {
		t.Errorf("out = %v, want %v", out, want)
	}
	if want := []bool{true, true, false, true, false}; !reflect.DeepEqual(done, want) {
		t.Errorf("done = %v, want %v", done, want)
	}
	if tally.Resumed != 3 || tally.Skipped != 2 || tally.Errors != nil {
		t.Errorf("tally = %+v, want 3 resumed, 2 skipped, no errors", tally)
	}
}

// A cell whose record the journal refuses fails: its result is not
// reported done, and the LegError wraps the refusal and names the cell.
func TestCellsRefusedRecordFails(t *testing.T) {
	errRefused := errors.New("disk full")
	j := &fakeJournal{cells: map[string]int{}, refuse: errRefused}
	keys := []string{"x", "y"}
	_, done, tally := Cells(Campaign{Journal: j}, keys, func(i int) int { return i })
	if done[0] || done[1] {
		t.Errorf("done = %v, want no cell done", done)
	}
	if len(tally.Errors) != 2 || tally.Skipped != 0 || tally.Resumed != 0 {
		t.Fatalf("tally = %+v, want 2 errors, nothing skipped or resumed", tally)
	}
	for i, le := range tally.Errors {
		if le.Index != i || !errors.Is(le, errRefused) || !strings.Contains(le.Error(), "checkpoint cell "+keys[i]) {
			t.Errorf("error %d = %v, want leg %d wrapping %v and naming cell %s", i, le, i, errRefused, keys[i])
		}
	}
}

// Cells run under the campaign's Policy: a panic and a deadline overrun
// each become a LegError, the failed cells are neither done nor recorded,
// and the clean cell is.
func TestCellsSupervisesRuns(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	j := &fakeJournal{cells: map[string]int{}}
	c := Campaign{Policy: Policy{Deadline: 50 * time.Millisecond}, Journal: j}
	out, done, tally := Cells(c, []string{"panic", "wedge", "ok"}, func(i int) int {
		switch i {
		case 0:
			panic("boom")
		case 1:
			<-release
		}
		return 7
	})
	if want := []bool{false, false, true}; !reflect.DeepEqual(done, want) || out[2] != 7 {
		t.Errorf("done = %v, out = %v; want %v with out[2] = 7", done, out, want)
	}
	if len(tally.Errors) != 2 || tally.Skipped != 0 || tally.Resumed != 0 {
		t.Fatalf("tally = %+v, want 2 errors, nothing skipped or resumed", tally)
	}
	if le := tally.Errors[0]; le.Index != 0 || !le.Panicked {
		t.Errorf("error 0 = %+v, want leg 0 panicked", le)
	}
	if le := tally.Errors[1]; le.Index != 1 || !le.TimedOut {
		t.Errorf("error 1 = %+v, want leg 1 timed out", le)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !reflect.DeepEqual(j.cells, map[string]int{"ok": 7}) {
		t.Errorf("journal = %v, want only the clean cell", j.cells)
	}
}
