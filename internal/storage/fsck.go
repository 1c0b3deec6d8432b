package storage

import (
	"fmt"
	"strings"
)

// Scrub walks a Panda directory set — one Disk per I/O node — and
// checks every epoch artifact for crash consistency: interrupted
// commits are rolled forward, uncommitted leftovers and atomic-write
// scratch are swept, and committed manifests are verified against the
// bytes on disk. A crash at any point of a collective write leaves only
// warn-level debris; error-level issues mean bytes the protocol
// promised durable cannot be produced (e.g. media that lied about a
// Sync), in which case repair falls the affected key back to the
// newest epoch every server can still serve.

// Issue severities.
const (
	SevWarn  = "warn"  // debris a crash legitimately leaves; -check passes
	SevError = "error" // a committed promise that cannot be kept
)

// ScrubIssue is one finding on one disk.
type ScrubIssue struct {
	Disk     int    // disk index, -1 for cross-disk findings
	Name     string // file (or key) the finding is about
	Severity string
	Problem  string
	Repaired bool // set when Scrub ran with repair and fixed it
}

// ScrubReport is what Scrub found and did.
type ScrubReport struct {
	Issues []ScrubIssue
	// Manifests counts committed manifests that verified clean;
	// Legacy counts data files with no manifest at all.
	Manifests, Legacy int
	// RolledForward, Removed and RolledBack count repair actions.
	RolledForward, Removed, RolledBack int
}

// OK reports whether the directory set is healthy: warn-level debris
// is tolerated, error-level issues are not.
func (r *ScrubReport) OK() bool {
	for _, is := range r.Issues {
		if is.Severity == SevError && !is.Repaired {
			return false
		}
	}
	return true
}

func (r *ScrubReport) add(disk int, name, sev, problem string, repaired bool) {
	r.Issues = append(r.Issues, ScrubIssue{Disk: disk, Name: name, Severity: sev, Problem: problem, Repaired: repaired})
}

// manifestState tracks one manifest-bearing slot (final or prev) of one
// key on one disk during a scrub.
type manifestState struct {
	disk  int
	base  string
	epoch uint64
	valid bool
}

// Scrub checks (and with repair, fixes) the epoch state across disks.
func Scrub(disks []Disk, repair bool) (*ScrubReport, error) {
	rep := &ScrubReport{}

	// Pass 0: collect commit decisions (normally only the master
	// server's disk has them, but any disk is honored).
	decided := map[string]uint64{}
	decDisk := map[string]int{}
	listings := make([][]string, len(disks))
	for i, d := range disks {
		if d == nil {
			continue // vacant pool slot (or a remote member's disk): nothing local to scrub
		}
		names, err := d.List()
		if err != nil {
			return nil, fmt.Errorf("storage: scrub: listing disk %d: %w", i, err)
		}
		listings[i] = names
		for _, n := range names {
			key, ok := DecisionKey(n)
			if !ok {
				continue
			}
			e, ok, err := ReadDecision(d, key)
			if err != nil {
				rep.add(i, n, SevError, fmt.Sprintf("unreadable decision record: %v", err), false)
				continue
			}
			if ok && e > decided[key] {
				decided[key] = e
				decDisk[key] = i
			}
		}
	}

	finals := map[string][]manifestState{} // key → final-slot states
	prevs := map[string][]manifestState{}  // key → prev-slot states

	// Pass 1: per-disk artifact walk.
	for i, d := range disks {
		if d == nil {
			continue
		}
		have := make(map[string]bool, len(listings[i]))
		for _, n := range listings[i] {
			have[n] = true
		}
		for _, n := range listings[i] {
			switch {
			case strings.HasSuffix(n, decisionExt):
				// handled in pass 0

			case strings.HasSuffix(n, ".tmp"):
				repaired := repair && d.Remove(n) == nil
				if repaired {
					rep.Removed++
				}
				rep.add(i, n, SevWarn, "interrupted atomic write", repaired)

			case strings.HasSuffix(n, ".mfst"):
				inner := strings.TrimSuffix(n, ".mfst")
				if base, epoch, ok := splitEpochName(inner); ok {
					scrubTempEpoch(rep, d, i, base, epoch, decided, repair)
					break
				}
				m, err := ReadManifest(d, n)
				if err != nil {
					rep.add(i, n, SevError, fmt.Sprintf("unreadable manifest: %v", err), false)
					break
				}
				key := m.Array + m.Suffix
				st := manifestState{disk: i, base: inner, epoch: m.Epoch}
				st.valid = m.TotalBytes == 0 || VerifyData(d, inner, m) == nil
				if strings.HasSuffix(inner, ".prev") {
					prevs[key] = append(prevs[key], st)
					if !st.valid {
						repaired := repair && removePair(d, inner) == nil
						if repaired {
							rep.Removed++
						}
						rep.add(i, n, SevWarn, "retained previous epoch fails verification", repaired)
					}
				} else {
					finals[key] = append(finals[key], st)
					if st.valid {
						rep.Manifests++
					}
					// Invalid finals are judged per key after the walk:
					// whether this is debris or disaster depends on the
					// decided epoch and the other disks.
				}

			case isEpochData(n):
				if !have[n+".mfst"] {
					// Data with no manifest: the crash hit between the
					// data sync and the manifest write — never PREPARED.
					repaired := repair && d.Remove(n) == nil
					if repaired {
						rep.Removed++
					}
					rep.add(i, n, SevWarn, "torn prepare (epoch data without manifest)", repaired)
				}

			case strings.HasSuffix(n, ".prev"):
				if !have[n+".mfst"] {
					repaired := repair && d.Remove(n) == nil
					if repaired {
						rep.Removed++
					}
					rep.add(i, n, SevWarn, "retained data without manifest", repaired)
				}

			default:
				if !have[n+".mfst"] {
					rep.Legacy++
				}
			}
		}
	}

	// Pass 2: judge each key's committed state against its decision.
	for key, sts := range finals {
		e := decided[key]
		var broken []manifestState
		for _, st := range sts {
			if !st.valid && (e == 0 || st.epoch == e) {
				broken = append(broken, st)
			} else if !st.valid {
				// A corrupt final that is not the decided epoch: stale.
				rep.add(st.disk, ManifestName(st.base), SevWarn,
					fmt.Sprintf("stale epoch %d fails verification (decided epoch is %d)", st.epoch, e), false)
			}
		}
		if len(broken) == 0 {
			continue
		}
		if e == 0 {
			for _, st := range broken {
				rep.add(st.disk, ManifestName(st.base), SevError,
					"committed data fails verification and no decision record exists to fall back from", false)
			}
			continue
		}
		// The decided epoch is unreadable somewhere. Fall the whole key
		// back to epoch e-1 if every disk can still serve it.
		target := e - 1
		rollable := target > 0
		for _, st := range sts {
			if serves(st, target) {
				continue
			}
			found := false
			for _, p := range prevs[key] {
				if p.disk == st.disk && serves(p, target) {
					found = true
					break
				}
			}
			if !found {
				rollable = false
			}
		}
		if !rollable {
			for _, st := range broken {
				rep.add(st.disk, ManifestName(st.base), SevError,
					fmt.Sprintf("committed epoch %d fails verification and no prior epoch is recoverable", e), false)
			}
			continue
		}
		repaired := false
		if repair {
			// Decision first: once it points at the prior epoch, every
			// reader resolves to the retained copies even if the
			// promotion below is interrupted.
			if err := WriteDecision(disks[decDisk[key]], key, target); err == nil {
				repaired = true
				rep.RolledBack++
				for _, st := range broken {
					d := disks[st.disk]
					_ = removePair(d, st.base)
					_ = d.Rename(ManifestName(PrevName(st.base)), ManifestName(st.base))
					_ = d.Rename(PrevName(st.base), st.base)
				}
			}
		}
		for _, st := range broken {
			rep.add(st.disk, ManifestName(st.base), SevError,
				fmt.Sprintf("committed epoch %d fails verification; prior epoch %d is recoverable", e, target), repaired)
		}
	}
	return rep, nil
}

// scrubTempEpoch judges one PREPARED epoch found on a disk.
func scrubTempEpoch(rep *ScrubReport, d Disk, disk int, base string, epoch uint64, decided map[string]uint64, repair bool) {
	name := EpochManifestName(base, epoch)
	m, err := ReadManifest(d, name)
	if err != nil {
		repaired := repair && removeEpochPair(d, base, epoch)
		if repaired {
			rep.Removed++
		}
		rep.add(disk, name, SevWarn, fmt.Sprintf("unreadable epoch manifest: %v", err), repaired)
		return
	}
	key := m.Array + m.Suffix
	if decided[key] != epoch {
		// Never decided (or superseded): a crash before commit. The
		// committed epoch is untouched; this is sweepable debris.
		repaired := repair && removeEpochPair(d, base, epoch)
		if repaired {
			rep.Removed++
		}
		rep.add(disk, name, SevWarn, "prepared epoch was never committed", repaired)
		return
	}
	// Decided: the commit was interrupted mid-promotion. Roll forward.
	if repair {
		if _, err := RollForward(d, base, epoch); err != nil {
			rep.add(disk, name, SevError, fmt.Sprintf("roll-forward failed: %v", err), false)
			return
		}
		rep.RolledForward++
		rep.add(disk, name, SevWarn, "interrupted commit rolled forward", true)
		return
	}
	probe := EpochName(base, epoch)
	if !Exists(d, probe) {
		probe = base
	}
	if m.TotalBytes > 0 {
		if verr := VerifyData(d, probe, m); verr != nil {
			rep.add(disk, name, SevError, fmt.Sprintf("interrupted commit not recoverable: %v", verr), false)
			return
		}
	}
	rep.add(disk, name, SevWarn, "interrupted commit (roll-forward pending)", false)
}

// serves reports whether a manifest slot can serve the given epoch.
func serves(st manifestState, epoch uint64) bool { return st.valid && st.epoch == epoch }

// isEpochData reports whether a name is "<base>.e<digits>" temp data.
func isEpochData(n string) bool {
	_, _, ok := splitEpochName(n)
	return ok
}

// removePair removes a data file and its manifest.
func removePair(d Disk, base string) error {
	err := d.Remove(base)
	if merr := d.Remove(ManifestName(base)); err == nil {
		err = merr
	}
	return err
}

// removeEpochPair removes a temp epoch's files, reporting success.
func removeEpochPair(d Disk, base string, epoch uint64) bool {
	RemoveEpoch(d, base, epoch)
	return true
}
