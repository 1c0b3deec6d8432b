package panda

import (
	"os"

	"panda/internal/meta"
	"panda/internal/storage"
)

// SaveSchema writes a self-describing schema file for the group — the
// paper's ArrayGroup schema file (Figure 2 names one
// "simulation2.schema"). A sequential consumer can later interpret the
// per-I/O-node files with nothing but this document; see LoadSchema,
// AssembleArray and cmd/pandacat.
func (c *Cluster) SaveSchema(g *Group, path string) error {
	doc := meta.FromSpecs(g.Name(), c.cfg.NumServers, g.specs())
	return meta.Save(path, doc)
}

// Schema is a loaded schema document: the group's declaration plus the
// I/O-node count its files are striped over.
type Schema struct {
	doc meta.GroupMeta
}

// LoadSchema reads a schema file written by SaveSchema.
func LoadSchema(path string) (*Schema, error) {
	doc, err := meta.Load(path)
	if err != nil {
		return nil, err
	}
	if _, err := doc.Specs(); err != nil {
		return nil, err
	}
	return &Schema{doc: doc}, nil
}

// Group returns the group name recorded in the schema.
func (s *Schema) Group() string { return s.doc.Group }

// IONodes returns the number of I/O nodes the data set is striped over.
func (s *Schema) IONodes() int { return s.doc.IONodes }

// ArrayNames lists the arrays in write order.
func (s *Schema) ArrayNames() []string {
	names := make([]string, len(s.doc.Arrays))
	for i, a := range s.doc.Arrays {
		names[i] = a.Name
	}
	return names
}

// AssembleArray reassembles one array of a Panda data set into a single
// row-major (traditional order) file — the paper's migration of array
// data to a sequential platform, valid for every disk schema, not just
// BLOCK,*,*. dataDir is the cluster directory (the Config.Dir the data
// was written with, containing ion0/, ion1/, ...), suffix selects the
// operation instance ("" for plain writes, ".t3" for timestep 3,
// ".ckpt" for the checkpoint), and outPath receives the stream. Each
// chunk is read from the file that holds the committed epoch, as a
// collective read would find it, whether the epoch was written with
// I/O nodes down or its commit was interrupted. The data set is only
// read. On any error no file is left at outPath.
func AssembleArray(s *Schema, dataDir, name, suffix, outPath string) (err error) {
	disks := make([]storage.Disk, s.doc.IONodes)
	for i := range disks {
		dir := storage.NodeDir(dataDir, i)
		if _, serr := os.Stat(dir); serr != nil {
			disks[i] = storage.NewMemDisk() // no directory: the node holds nothing
		} else if disks[i], err = storage.NewOSDisk(dir); err != nil {
			return err
		}
	}
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(outPath)
		}
	}()
	return meta.Assemble(out, s.doc, name, suffix, disks)
}
