// Package tm provides the integer time base used throughout the library:
// a Time scalar, half-open intervals, and sets of disjoint intervals with
// the gap and first-fit queries the scheduler and the slack metrics need.
//
// All quantities are expressed in abstract "time units" (tu). The paper's
// synthetic benchmarks use WCETs of 20-150 tu; one tu can be read as one
// microsecond without changing any result.
package tm

import "fmt"

// Time is a point in time or a duration, in integer time units.
// Using a single integer base keeps static cyclic schedules exact:
// there is no rounding anywhere in the pipeline.
type Time int64

// Infinity is a sentinel larger than any schedule horizon.
const Infinity Time = 1<<62 - 1

func (t Time) String() string { return fmt.Sprintf("%dtu", int64(t)) }

// Min returns the smaller of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// GCD returns the greatest common divisor of a and b (non-negative inputs).
func GCD(a, b Time) Time {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b. It reports an error
// when the result would exceed Infinity: periods come from input files,
// and coprime ones make the hyperperiod explode. It panics if either
// argument is non-positive, which validated periods never are.
func LCM(a, b Time) (Time, error) {
	if a <= 0 || b <= 0 {
		panic(fmt.Sprintf("tm.LCM: non-positive argument (%d, %d)", a, b))
	}
	g := GCD(a, b)
	q := a / g
	if q > Infinity/b {
		return 0, fmt.Errorf("tm: least common multiple of %d and %d overflows", a, b)
	}
	return q * b, nil
}

// LCMAll returns the least common multiple of all values, or LCM's
// overflow error. It panics on an empty slice.
func LCMAll(vs []Time) (Time, error) {
	if len(vs) == 0 {
		panic("tm.LCMAll: empty slice")
	}
	l := vs[0]
	for _, v := range vs[1:] {
		var err error
		if l, err = LCM(l, v); err != nil {
			return 0, err
		}
	}
	return l, nil
}
