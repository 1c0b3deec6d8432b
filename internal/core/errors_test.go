package core

import (
	"errors"
	"fmt"
	"testing"
)

// TestSentinelTableConformance is the one statement of the typed-error
// contract: every sentinel in the table survives both wires — the
// binary status frame and the daemon's JSON session channel — bare and
// wrapped, and is accepted by IsTyped; anything else degrades to
// statusFailed and is rejected.
func TestSentinelTableConformance(t *testing.T) {
	codes, names := map[byte]bool{}, map[string]bool{}
	for _, s := range sentinels {
		if s.code <= statusFailed || codes[s.code] || s.name == "" || names[s.name] {
			t.Errorf("table row %q: code %d or name is reserved or duplicated", s.name, s.code)
		}
		codes[s.code], names[s.name] = true, true

		for _, err := range []error{s.err, fmt.Errorf("server 3, array x: %w", s.err)} {
			if !IsTyped(err) {
				t.Errorf("%v: not IsTyped", err)
			}
			if got := statusCode(err); got != s.code {
				t.Errorf("%v: statusCode = %d, want %d", err, got, s.code)
			}
			r := rbuf{b: encodeStatus(msgComplete, 1, 2, err)[1:]}
			frame, derr := decodeStatus(&r)
			if derr != nil {
				t.Fatalf("%v: decodeStatus: %v", err, derr)
			}
			if !errors.Is(frame.Err, s.err) || frame.Err.Error() != err.Error() {
				t.Errorf("%v: crossed the status frame as %v", err, frame.Err)
			}
			if name := SentinelName(err); name != s.name {
				t.Errorf("%v: SentinelName = %q, want %q", err, name, s.name)
			}
			back := SentinelError(s.name, err.Error())
			if !errors.Is(back, s.err) || back.Error() != err.Error() {
				t.Errorf("%v: crossed the session channel as %v", err, back)
			}
		}
		if err := statusError(s.code, ""); err != s.err {
			t.Errorf("code %d with no message decodes to %v, want the bare sentinel", s.code, err)
		}
	}

	plain := errors.New("disk on fire")
	if IsTyped(plain) || IsTyped(nil) || SentinelName(plain) != "" {
		t.Error("an unlisted error (or nil) passes for typed")
	}
	if got := statusCode(plain); got != statusFailed {
		t.Errorf("unlisted error: statusCode = %d, want statusFailed", got)
	}
	if err := statusError(statusFailed, plain.Error()); IsTyped(err) || err.Error() != plain.Error() {
		t.Errorf("statusFailed decodes to %v", err)
	}
	if err := SentinelError("", plain.Error()); IsTyped(err) || err.Error() != plain.Error() {
		t.Errorf("an empty session code decodes to %v", err)
	}
	if statusCode(nil) != statusOK || statusError(statusOK, "ignored") != nil {
		t.Error("success does not round-trip as nil")
	}
}
