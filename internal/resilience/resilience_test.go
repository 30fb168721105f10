package resilience

import (
	"testing"
	"time"
)

func TestParseDeadline(t *testing.T) {
	d, ok, err := ParseDeadline("")
	if d != 0 || ok || err != nil {
		t.Fatalf("ParseDeadline(\"\") = %v %v %v, want 0 false nil", d, ok, err)
	}
	d, ok, err = ParseDeadline("1500")
	if err != nil || !ok || d != 1500*time.Millisecond {
		t.Fatalf("ParseDeadline(1500) = %v %v %v", d, ok, err)
	}
	for _, bad := range []string{"abc", "1.5", "0", "-10"} {
		if _, _, err := ParseDeadline(bad); err == nil {
			t.Errorf("ParseDeadline(%q) succeeded, want error", bad)
		}
	}
}
