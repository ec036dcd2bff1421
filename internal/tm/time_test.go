package tm

import "testing"

func TestMinMax(t *testing.T) {
	if got := Min(3, 5); got != 3 {
		t.Errorf("Min(3,5) = %v, want 3", got)
	}
	if got := Min(5, 3); got != 3 {
		t.Errorf("Min(5,3) = %v, want 3", got)
	}
	if got := Max(3, 5); got != 5 {
		t.Errorf("Max(3,5) = %v, want 5", got)
	}
	if got := Max(-1, -7); got != -1 {
		t.Errorf("Max(-1,-7) = %v, want -1", got)
	}
}

func TestGCD(t *testing.T) {
	tests := []struct{ a, b, want Time }{
		{12, 18, 6},
		{18, 12, 6},
		{7, 13, 1},
		{0, 5, 5},
		{5, 0, 5},
		{40, 40, 40},
	}
	for _, tc := range tests {
		if got := GCD(tc.a, tc.b); got != tc.want {
			t.Errorf("GCD(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLCM(t *testing.T) {
	tests := []struct{ a, b, want Time }{
		{4, 6, 12},
		{1, 9, 9},
		{20, 50, 100},
		{40, 40, 40},
	}
	for _, tc := range tests {
		if got, err := LCM(tc.a, tc.b); err != nil || got != tc.want {
			t.Errorf("LCM(%d,%d) = %d, %v, want %d", tc.a, tc.b, got, err, tc.want)
		}
	}
}

func TestLCMPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LCM(0, 3) did not panic")
		}
	}()
	LCM(0, 3)
}

func TestLCMAll(t *testing.T) {
	if got, err := LCMAll([]Time{4, 6, 10}); err != nil || got != 60 {
		t.Errorf("LCMAll = %d, %v, want 60", got, err)
	}
	if got, err := LCMAll([]Time{7}); err != nil || got != 7 {
		t.Errorf("LCMAll single = %d, %v, want 7", got, err)
	}
	// Six coprime periods near 10^6 overflow partway through the fold.
	if _, err := LCMAll([]Time{999983, 999979, 999961, 999959, 999953, 999931}); err == nil {
		t.Error("LCMAll of coprime periods near 10^6 reported no overflow")
	}
}

func TestLCMAllPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LCMAll(nil) did not panic")
		}
	}()
	LCMAll(nil)
}

func TestTimeString(t *testing.T) {
	if got := Time(42).String(); got != "42tu" {
		t.Errorf("Time.String = %q, want 42tu", got)
	}
}
