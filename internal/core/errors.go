package core

import "errors"

// ErrTimeout is the typed failure a collective returns when the
// operation deadline (Config.OpTimeout) expires before the protocol
// completes — a lost message, a straggler past its budget, a dead hub.
// The deployment remains usable: the next collective starts clean.
var ErrTimeout = errors.New("core: collective operation timed out")

// ErrPeerLost is the typed failure a collective returns when the
// transport reports a participant gone (TCP hub death notification,
// mesh link failure, injected crash) rather than merely late.
var ErrPeerLost = errors.New("core: peer lost during collective operation")

// ErrNoCommittedEpoch is the typed failure a collective read returns
// when a file set has no committed epoch to serve — nothing was ever
// written, or every prepared epoch died before its commit decision.
var ErrNoCommittedEpoch = errors.New("core: no committed epoch")

// ErrCorrupt is the typed failure a verified read (Config.
// VerifyOnRestart) returns when the bytes on disk contradict the
// committed manifest — a torn sync or bit rot the commit protocol
// cannot hide. pandafsck -repair can fall the file set back to the
// retained previous epoch. Any operation on a key whose commit decision
// record exists but does not parse fails the same way.
var ErrCorrupt = errors.New("core: committed data fails verification")

// ErrBusy is the typed failure a submitted operation returns when the
// scheduler's admission queue is full: backpressure, not breakage. The
// caller may retry after draining some of its in-flight operations.
var ErrBusy = errors.New("core: scheduler admission queue full")

// ErrSchemaMismatch is the typed failure a session gets when it opens
// a cataloged array under a schema whose fingerprint (element size plus
// disk and memory decompositions, the same CRC32C the plan cache keys
// on) disagrees with the schema the catalog recorded at creation.
// Mismatched shapes would silently scatter bytes into the wrong
// regions; the catalog refuses instead.
var ErrSchemaMismatch = errors.New("core: array schema does not match catalog")

// ErrUnknownArray is the typed failure a session gets when it opens an
// array the catalog has never heard of (and did not ask to create).
var ErrUnknownArray = errors.New("core: array not in catalog")

// ErrDraining is the typed failure a service returns for work arriving
// after a graceful drain began: no new sessions or operations are
// admitted while in-flight work runs to completion.
var ErrDraining = errors.New("core: service is draining")

// ErrSeqWindow is the typed failure a collective returns when its
// client has used every operation sequence number it was given (a
// session's 1<<sessionSeqBits; a fixed-shape deployment's whole tag
// space): raised before anything is sent, on every member alike.
var ErrSeqWindow = errors.New("core: operation sequence window exhausted")

// Status codes carried by Done and Complete messages so typed errors
// survive the wire: a client that receives a Complete with
// statusTimeout returns an error wrapping ErrTimeout, exactly as if it
// had hit the deadline locally.
const (
	statusOK byte = iota
	statusFailed
	statusTimeout
	statusPeerLost
	statusNoEpoch
	statusCorrupt
	statusBusy
	statusSchemaMismatch
	statusDraining
	statusUnknownArray
	statusSeqWindow
)

type sentinel struct {
	code byte
	name string
	err  error
}

// sentinels is the one list of typed errors a caller can see: the
// binary status code each travels under in protocol frames, the name it
// travels under on the daemon's JSON session channel, and the sentinel
// it reconstructs to on the far side. Classification takes the first
// match, so more specific sentinels come first.
var sentinels = []sentinel{
	{statusTimeout, "timeout", ErrTimeout},
	{statusPeerLost, "peer_lost", ErrPeerLost},
	{statusNoEpoch, "no_committed_epoch", ErrNoCommittedEpoch},
	{statusCorrupt, "corrupt", ErrCorrupt},
	{statusSchemaMismatch, "schema_mismatch", ErrSchemaMismatch},
	{statusUnknownArray, "unknown_array", ErrUnknownArray},
	{statusDraining, "draining", ErrDraining},
	{statusBusy, "busy", ErrBusy},
	{statusSeqWindow, "seq_window", ErrSeqWindow},
}

// IsTyped reports whether err is (or wraps) one of the sentinels that
// survive the wire — the contract every failure a caller can see must
// meet.
func IsTyped(err error) bool { return classify(err) != nil }

// classify returns the table row of the sentinel err wraps, or nil for
// an untyped (or nil) error.
func classify(err error) *sentinel {
	for i := range sentinels {
		if errors.Is(err, sentinels[i].err) {
			return &sentinels[i]
		}
	}
	return nil
}

// SentinelName returns the session-channel name of the sentinel err
// wraps, or "" for an untyped error.
func SentinelName(err error) string {
	if s := classify(err); s != nil {
		return s.name
	}
	return ""
}

// SentinelError is the receiving side of SentinelName: it rebuilds a
// typed error from a name and the remote message. An unknown name
// yields a plain error carrying msg.
func SentinelError(name, msg string) error {
	for _, s := range sentinels {
		if s.name == name {
			return typedError(s.err, msg)
		}
	}
	return errors.New(msg)
}

// statusCode classifies err for the wire.
func statusCode(err error) byte {
	if err == nil {
		return statusOK
	}
	if s := classify(err); s != nil {
		return s.code
	}
	return statusFailed
}

// statusError reconstructs a typed error from a wire status. msg is
// the human-readable detail; an empty msg with a non-OK code still
// yields the sentinel.
func statusError(code byte, msg string) error {
	if code == statusOK {
		return nil
	}
	for _, s := range sentinels {
		if s.code == code {
			return typedError(s.err, msg)
		}
	}
	if msg == "" {
		msg = "core: collective operation failed"
	}
	return errors.New(msg)
}

// typedError carries a remote message while staying errors.Is-able
// against the local sentinel; with no message it is the sentinel.
func typedError(sentinel error, msg string) error {
	if msg == "" {
		return sentinel
	}
	return wrapped{msg: msg, sentinel: sentinel}
}

type wrapped struct {
	msg      string
	sentinel error
}

func (w wrapped) Error() string { return w.msg }
func (w wrapped) Unwrap() error { return w.sentinel }
