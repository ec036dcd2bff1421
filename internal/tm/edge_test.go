package tm

import (
	"reflect"
	"strings"
	"testing"
)

func TestIntervalString(t *testing.T) {
	if got := Iv(3, 9).String(); got != "[3,9)" {
		t.Errorf("String = %q", got)
	}
}

func TestSetStringListsIntervals(t *testing.T) {
	s := NewSet(Iv(1, 2), Iv(5, 9))
	out := s.String()
	if !strings.Contains(out, "[1,2)") || !strings.Contains(out, "[5,9)") {
		t.Errorf("Set.String = %q", out)
	}
}

func TestNextFitsStopsAtLatestEnd(t *testing.T) {
	s := NewSet(Iv(10, 20))
	// Only the first gap [0,10) ends before latestEnd 15.
	got := s.NextFits(0, 5, 15, 10)
	if !reflect.DeepEqual(got, []Time{0}) {
		t.Errorf("NextFits = %v, want [0]", got)
	}
	if got := s.NextFits(0, 20, 15, 10); got != nil {
		t.Errorf("oversized NextFits = %v, want none", got)
	}
}

func TestNextFitsEmptySet(t *testing.T) {
	s := NewSet()
	got := s.NextFits(5, 10, 100, 3)
	// One infinite gap: a single candidate at the earliest position.
	if !reflect.DeepEqual(got, []Time{5}) {
		t.Errorf("NextFits on empty set = %v, want [5]", got)
	}
}

func TestFirstFitZeroDuration(t *testing.T) {
	s := NewSet(Iv(20, 30))
	start, ok := s.FirstFit(5, 0, 5)
	if !ok || start != 5 {
		t.Errorf("zero-duration FirstFit in free space = (%v,%v), want (5,true)", start, ok)
	}
	// A zero-duration placement inside a busy interval is pushed out like
	// any other, and fails when that exceeds the bound.
	busy := NewSet(Iv(0, 10))
	if _, ok := busy.FirstFit(5, 0, 5); ok {
		t.Error("zero-duration placement inside a busy interval accepted")
	}
	if _, ok := s.FirstFit(5, -1, 100); ok {
		t.Error("negative duration accepted")
	}
}

func TestRemoveNoopOutsideSet(t *testing.T) {
	s := NewSet(Iv(10, 20))
	s.Remove(Iv(30, 40))
	s.Remove(Iv(0, 5))
	s.Remove(Iv(15, 15)) // empty
	if s.Total() != 10 {
		t.Errorf("Total = %v after no-op removes", s.Total())
	}
}

func TestGapsEmptyWindow(t *testing.T) {
	s := NewSet(Iv(0, 10))
	if gaps := s.Gaps(Iv(5, 5)); gaps != nil {
		t.Errorf("empty window gaps = %v", gaps)
	}
}

func TestOverlapsAnyEmptyInterval(t *testing.T) {
	s := NewSet(Iv(0, 10))
	if s.OverlapsAny(Iv(5, 5)) {
		t.Error("empty interval overlaps")
	}
}

func TestAddEmptyIntervalIgnored(t *testing.T) {
	s := NewSet()
	s.Add(Iv(7, 7))
	s.Add(Iv(9, 3))
	if s.Len() != 0 {
		t.Errorf("empty adds produced %d intervals", s.Len())
	}
}

func TestGCDNegativeSafeUse(t *testing.T) {
	// GCD is documented for non-negative inputs; LCMAll guards zero.
	if got := GCD(0, 0); got != 0 {
		t.Errorf("GCD(0,0) = %v", got)
	}
}

func TestLCMOverflowError(t *testing.T) {
	if got, err := LCM(Infinity-1, Infinity-2); err == nil {
		t.Fatalf("LCM overflow returned %d and no error", got)
	}
}
