package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strings"
)

// Scrub walks a Panda directory set — one Disk per I/O node — and
// reads every key the way a collective read does, through Resolve at
// the decided epoch, then applies the repair each answer implies:
// interrupted commits are rolled forward, what is served is verified
// against its manifest, and what no answer serves (uncommitted epochs,
// atomic-write scratch) is swept. A crash at any point of a collective
// write leaves only warn-level debris; error-level issues mean bytes
// the protocol promised durable cannot be produced (e.g. media that
// lied about a Sync), in which case repair falls the affected key back
// to the epoch before when every server can still serve it. A key it
// cannot fall back keeps its debris, and one whose decision record
// cannot be read is reported and not touched.

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
	// Manifests counts served files whose manifest verified clean;
	// Legacy counts served data files with no manifest at all.
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

// Scrub checks (and with repair, fixes) the epoch state across disks.
// It lists each disk once, groups the names into array+suffix keys
// through parseName, and judges the keys in sorted order, disks in
// index order, through Resolve — the reading a collective read makes.
func Scrub(disks []Disk, repair bool) (*ScrubReport, error) {
	rep := &ScrubReport{}
	keys := map[string][][]string{} // key → per-disk names, sorted
	var order []string
	for i, d := range disks {
		if d == nil {
			continue // vacant pool slot (or a remote member's disk): nothing local to scrub
		}
		names, err := d.List()
		if err != nil {
			return nil, fmt.Errorf("storage: scrub: listing disk %d: %w", i, err)
		}
		for _, n := range names {
			k := parseName(n).key
			if keys[k] == nil {
				keys[k] = make([][]string, len(disks))
				order = append(order, k)
			}
			keys[k][i] = append(keys[k][i], n)
		}
	}
	sort.Strings(order)
	for _, k := range order {
		first := len(rep.Issues)
		(&keyScrub{ScrubReport: rep, disks: disks, key: k, names: keys[k], repair: repair}).run()
		added := rep.Issues[first:]
		sort.SliceStable(added, func(i, j int) bool { return added[i].Disk < added[j].Disk })
	}
	return rep, nil
}

// keyScrub judges one key across the disks.
type keyScrub struct {
	*ScrubReport
	disks  []Disk
	key    string
	names  [][]string // per disk: the key's names, sorted
	repair bool
	keep   bool // sweep nothing: the decided epoch is broken beyond repair
}

// answer is Resolve's answer for one base on one disk; bad is Resolve's
// error or the served file failing verification.
type answer struct {
	disk int
	base string
	c    Committed
	bad  error
}

// run reads the key's decision, rolls the key back if its decided epoch
// no longer verifies, and applies each answer at the decided epoch: an
// interrupted commit rolls forward, what is served is counted, and what
// no answer serves is swept.
func (s *keyScrub) run() {
	e, at := s.decision()
	if at < 0 {
		return // an unreadable record: what is decided is unknown, so nothing is touched
	}
	e, as := s.judge(e, at, s.resolve(e))
	for _, a := range as {
		if a.c.Pending {
			name, problem := EpochManifestName(a.base, e), "interrupted commit (roll-forward pending)"
			if s.repair {
				if err := CommitEpoch(s.disks[a.disk], a.base, e); err != nil {
					s.add(a.disk, name, SevError, fmt.Sprintf("roll-forward failed: %v", err), false)
					continue
				}
				s.RolledForward++
				a.c.Name, a.c.Pending, problem = a.base, false, "interrupted commit rolled forward"
				s.relist(a.disk)
			}
			s.add(a.disk, name, SevWarn, problem, s.repair)
		}
		if a.c.Manifest != nil && a.bad == nil {
			s.Manifests++
		} else if a.c.Name != "" && a.c.Manifest == nil {
			s.Legacy++
		}
		s.sweep(a, e)
	}
}

// decision reads the key's decided epoch: the highest any disk records
// (normally only the master server's disk has a record), and that disk;
// -1 for a record that cannot be read.
func (s *keyScrub) decision() (e uint64, at int) {
	for i, d := range s.disks {
		if d == nil {
			continue
		}
		de, _, err := ReadDecision(d, s.key)
		if err != nil {
			s.add(i, DecisionName(s.key), SevError, fmt.Sprintf("unreadable decision record: %v", err), false)
			return 0, -1
		}
		if de > e {
			e, at = de, i
		}
	}
	return e, at
}

// resolve asks Resolve for every base of the key on every disk, in
// order, and verifies what it serves.
func (s *keyScrub) resolve(e uint64) []answer {
	var as []answer
	for i, d := range s.disks {
		seen := map[string]bool{}
		for _, n := range s.names[i] {
			a := answer{disk: i, base: parseName(n).base}
			if seen[a.base] {
				continue
			}
			seen[a.base] = true
			if a.base != "" {
				a.c, a.bad = Resolve(d, a.base, e)
			}
			if a.bad == nil && a.c.Manifest != nil && !a.c.Pending {
				a.bad = VerifyData(d, a.c.Name, a.c.Manifest)
			}
			as = append(as, a)
		}
	}
	return as
}

// judge reports every answer that fails verification at the decided
// epoch e. With repair, it rolls the key back to e-1 when every base
// that holds anything at e or e-1 serves a verified file at e-1: the
// decision first, so a reader resolves to the retained copies even if
// the promotion after it is interrupted. It returns the epoch the key
// is decided at and the answers there.
func (s *keyScrub) judge(e uint64, at int, as []answer) (uint64, []answer) {
	var broken []answer
	for _, a := range as {
		if a.bad != nil {
			broken = append(broken, a)
		}
	}
	if len(broken) == 0 {
		return e, as
	}
	rollable, prior := e > 1, []answer(nil)
	if rollable {
		prior = s.resolve(e - 1)
		for i, p := range prior {
			none := as[i].bad == nil && as[i].c == Committed{} && p.bad == nil && p.c == Committed{}
			rollable = rollable && (none || p.bad == nil && p.c.Manifest != nil)
		}
	}
	problem := "committed data fails verification and no decision record exists to fall back from"
	switch {
	case rollable:
		problem = fmt.Sprintf("committed epoch %d fails verification; prior epoch %d is recoverable", e, e-1)
	case e > 0:
		problem = fmt.Sprintf("committed epoch %d fails verification and no prior epoch is recoverable", e)
	}
	rolled := rollable && s.repair && WriteDecision(s.disks[at], s.key, e-1) == nil
	for i, p := range prior {
		if rolled && as[i].bad != nil && p.c.Name == PrevName(p.base) {
			d := s.disks[p.disk]
			_, _ = d.Remove(p.base), d.Remove(ManifestName(p.base))
			_ = d.Rename(ManifestName(p.c.Name), ManifestName(p.base))
			_ = d.Rename(p.c.Name, p.base)
			s.relist(p.disk)
		}
	}
	for _, a := range broken {
		name := ManifestName(a.base) // a committed manifest Resolve could not read
		switch tm := EpochManifestName(a.base, e); {
		case a.c.Manifest != nil:
			name = ManifestName(a.c.Name)
		case Exists(s.disks[a.disk], tm):
			name = tm // a pending epoch Resolve refused
		}
		s.add(a.disk, name, SevError, problem, rolled)
	}
	if !rolled {
		// A key that stays broken keeps its debris: a sweep could remove
		// what an operator would recover it from.
		s.keep = true
		return e, as
	}
	s.RolledBack++
	return e - 1, s.resolve(e - 1)
}

// sweep judges the names of a's base that a does not serve: scratch and
// undecided epochs go, and so does a retained previous epoch that fails
// verification; a committed file the decision does not name is stale —
// kept, and warned about when it fails verification.
func (s *keyScrub) sweep(a answer, e uint64) {
	d := s.disks[a.disk]
	for _, n := range s.names[a.disk] {
		p := parseName(n)
		served := a.c.Manifest != nil && ManifestName(a.c.Name) == n || a.c.Name == n
		switch {
		case p.base != a.base || served:
		case p.kind == scratchExt:
			s.remove(a.disk, "interrupted atomic write", n)
		case p.kind == epochExt && p.epoch == e && (a.c.Pending || a.c.Name == "" && a.bad != nil):
			// the decided epoch's interrupted commit: a's own files
		case p.kind == epochExt && p.mfst:
			s.remove(a.disk, "prepared epoch was never committed", n, EpochName(p.base, p.epoch))
		case p.kind == epochExt && !Exists(d, ManifestName(n)):
			s.remove(a.disk, "torn prepare (epoch data without manifest)", n)
		case p.kind == prevExt && !p.mfst && !Exists(d, ManifestName(n)):
			s.remove(a.disk, "retained data without manifest", n)
		case p.mfst:
			data := strings.TrimSuffix(n, manifestExt)
			m, err := ReadManifest(d, n)
			switch {
			case err != nil:
				s.add(a.disk, n, SevError, fmt.Sprintf("unreadable manifest: %v", err), false)
			case VerifyData(d, data, m) == nil:
			case p.kind == prevExt:
				s.remove(a.disk, "retained previous epoch fails verification", n, data)
			default:
				s.add(a.disk, n, SevWarn, fmt.Sprintf("stale epoch %d fails verification (decided epoch is %d)", m.Epoch, e), false)
			}
		}
	}
}

// remove sweeps debris — names no answer serves — and reports it.
func (s *keyScrub) remove(disk int, problem string, names ...string) {
	repaired := s.repair && !s.keep
	for i := 0; repaired && i < len(names); i++ {
		if err := s.disks[disk].Remove(names[i]); err != nil && !errors.Is(err, fs.ErrNotExist) {
			repaired = false
		}
	}
	if repaired {
		s.Removed++
	}
	s.add(disk, names[0], SevWarn, problem, repaired)
}

// relist re-reads disk i's names of the key after a repair moved them.
func (s *keyScrub) relist(i int) {
	names, _ := s.disks[i].List()
	s.names[i] = s.names[i][:0]
	for _, n := range names {
		if parseName(n).key == s.key {
			s.names[i] = append(s.names[i], n)
		}
	}
}
