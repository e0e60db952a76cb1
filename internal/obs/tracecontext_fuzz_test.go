package obs

import "testing"

// FuzzParseTraceparent: ParseTraceparent never panics on arbitrary header
// values, and whatever it accepts is a valid context that renders with
// Traceparent() and parses back to itself.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	f.Add(" 01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-03-extra ")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-00000000000000000000000000000000-00f067aa0ba902b7-01")
	f.Add("00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01")
	f.Add("---")
	f.Fuzz(func(t *testing.T, s string) {
		tc, err := ParseTraceparent(s)
		if err != nil {
			return
		}
		if !tc.Valid() {
			t.Fatalf("accepted %q as an invalid context %+v", s, tc)
		}
		out := tc.Traceparent()
		back, err := ParseTraceparent(out)
		if err != nil {
			t.Fatalf("%q -> %q does not parse: %v", s, out, err)
		}
		if back != tc {
			t.Fatalf("%q -> %q -> %+v, want %+v", s, out, back, tc)
		}
	})
}
