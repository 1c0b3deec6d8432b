// pandafsck scrubs the file set behind a Panda cluster for crash
// consistency: every epoch artifact — commit decisions, manifests,
// prepared temp epochs, retained previous epochs, atomic-write scratch
// — is checked against the DIRTY → PREPARED → COMMITTED protocol, and
// committed manifests are verified against the bytes on disk.
//
//	pandafsck /data/panda          # check a cluster dir (ion0, ion1, ...)
//	pandafsck -repair /data/panda  # roll forward torn commits, sweep debris
//	pandafsck -v /data/panda/ion0  # check one I/O node's dir, list findings
//
// Exit status: 0 when the file set is healthy (warn-level crash debris
// is healthy — a crash legitimately leaves it), 1 when committed data
// cannot be produced, 2 on usage or I/O errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"panda/internal/storage"
)

func main() {
	repair := flag.Bool("repair", false, "fix what can be fixed: roll interrupted commits forward, sweep uncommitted debris, fall broken keys back to the prior epoch")
	verbose := flag.Bool("v", false, "list every finding, including repaired and warn-level ones")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pandafsck [-repair] [-v] DIR\n\nDIR is a cluster directory holding ion0, ion1, ... subdirectories\n(panda.Config.Dir), or a single I/O node's directory.\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	dir := flag.Arg(0)

	roots, err := ionDirs(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pandafsck: %v\n", err)
		os.Exit(2)
	}
	disks := make([]storage.Disk, len(roots))
	for i, root := range roots {
		d, err := storage.NewOSDisk(root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pandafsck: %v\n", err)
			os.Exit(2)
		}
		disks[i] = d
	}

	rep, err := storage.Scrub(disks, *repair)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pandafsck: %v\n", err)
		os.Exit(2)
	}

	var warns, errs int
	for _, is := range rep.Issues {
		bad := is.Severity == storage.SevError && !is.Repaired
		if bad {
			errs++
		} else {
			warns++
		}
		if *verbose || bad {
			where := roots[0]
			if is.Disk >= 0 && is.Disk < len(roots) {
				where = roots[is.Disk]
			}
			status := is.Severity
			if is.Repaired {
				status += ", repaired"
			}
			fmt.Printf("%s: %s: %s (%s)\n", where, is.Name, is.Problem, status)
		}
	}
	fmt.Printf("%d disk(s): %d manifest(s) verified, %d legacy file(s), %d warning(s), %d error(s)\n",
		len(disks), rep.Manifests, rep.Legacy, warns, errs)
	if *repair && rep.RolledForward+rep.Removed+rep.RolledBack > 0 {
		fmt.Printf("repaired: %d commit(s) rolled forward, %d file(s) swept, %d key(s) rolled back\n",
			rep.RolledForward, rep.Removed, rep.RolledBack)
	}
	if !rep.OK() {
		os.Exit(1)
	}
}

// ionDirs resolves dir to the per-I/O-node roots to scrub: its ion<i>
// subdirectories when present (a panda.Config.Dir), else dir itself.
func ionDirs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idxs []int
	for _, e := range entries {
		if i, ok := storage.NodeIndex(e.Name()); ok && e.IsDir() {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return []string{dir}, nil
	}
	sort.Ints(idxs)
	// Scrub wants disk index == server index; a gap (missing ion1 with
	// ion2 present) would silently misattribute findings.
	roots := make([]string, len(idxs))
	for want, i := range idxs {
		if i != want {
			return nil, fmt.Errorf("cluster dir is missing %s (found %s)", storage.NodeDir(dir, want), storage.NodeDir(dir, i))
		}
		roots[want] = storage.NodeDir(dir, i)
	}
	return roots, nil
}
