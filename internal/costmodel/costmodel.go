// Package costmodel predicts the elapsed time of a Panda collective
// operation from the schemas and the machine parameters, without
// running it — the cost model the paper names as future work ("we are
// developing a cost model to predict Panda's performance given an
// in-memory and on-disk schema").
//
// The model walks the same plan geometry the servers execute — chunk
// assignment, sub-chunk splitting, per-client pieces — and prices each
// server's serial loop:
//
//	elapsed(server) = Σ_subchunks [ network(subchunk) + disk(subchunk) ]
//
// where network covers the request/reply latencies and the sub-chunk's
// bytes through the server's port, and disk is the AIX model's cost of
// the sequential request (zero for fast disks). Client-side egress and
// reorganization copies give per-client lower bounds. The prediction is
// the startup overhead plus the slowest node, with network/disk overlap
// credited when the write pipeline or read-ahead is enabled.
//
// Accuracy is validated against the discrete-event simulation in
// costmodel_test.go (within ~15 % across the paper's configurations);
// the point of the model is schema selection — ranking layouts before
// writing a byte — not microsecond agreement.
package costmodel

import (
	"time"

	"panda/internal/array"
	"panda/internal/core"
	"panda/internal/mpi"
	"panda/internal/storage"
)

// Inputs describes the operation to predict.
type Inputs struct {
	// Cfg is the deployment (clients, servers, sub-chunk limit,
	// pipeline, startup overhead, copy rate).
	Cfg core.Config
	// Specs are the arrays of the collective call.
	Specs []core.ArraySpec
	// Link is the interconnect model.
	Link mpi.LinkConfig
	// Topo, when non-nil, prices cross-rack transfers differently from
	// in-rack ones: every message is charged the sender overhead, a
	// cross-rack piece pays the spine latency both ways (request and
	// data), and cross-rack bytes flow at the uplink bandwidth when the
	// rack's uplink is the narrower pipe. Nil reproduces the uniform
	// model exactly.
	Topo *mpi.Topology
	// Disk is the per-I/O-node file system model; FastDisk ignores it.
	Disk storage.AIXModel
	// FastDisk prices disk requests at zero (paper Figures 5, 6, 9).
	FastDisk bool
	// Write selects write (true) or read (false).
	Write bool
}

// Breakdown itemizes a prediction.
type Breakdown struct {
	// Startup is the fixed per-operation cost.
	Startup time.Duration
	// PerServer is each I/O node's predicted busy time.
	PerServer []time.Duration
	// PerServerDisk and PerServerNet split it.
	PerServerDisk []time.Duration
	PerServerNet  []time.Duration
	// PerClient is each compute node's predicted lower bound
	// (egress/ingress plus reorganization copies).
	PerClient []time.Duration
	// Elapsed is the predicted operation time.
	Elapsed time.Duration
}

func bytesTime(n int64, rate float64) time.Duration {
	if rate <= 0 {
		return 0
	}
	return time.Duration(float64(n) / rate * float64(time.Second))
}

// Predict estimates the elapsed time of one collective operation.
func Predict(in Inputs) Breakdown {
	cfg := in.Cfg
	b := Breakdown{
		Startup:       cfg.StartupOverhead,
		PerServer:     make([]time.Duration, cfg.NumServers),
		PerServerDisk: make([]time.Duration, cfg.NumServers),
		PerServerNet:  make([]time.Duration, cfg.NumServers),
		PerClient:     make([]time.Duration, cfg.NumClients),
	}

	clientBytes := make([]int64, cfg.NumClients)
	clientReorg := make([]int64, cfg.NumClients)

	// Resolve the effective links once: with a topology the in-rack
	// link may override the base, and a rack's uplink may be narrower.
	link := in.Topo.LocalLink(in.Link)
	uplink := link.Bandwidth
	if in.Topo != nil {
		if up := in.Topo.UplinkBandwidth(in.Link); up < uplink {
			uplink = up
		}
	}

	for s := 0; s < cfg.NumServers; s++ {
		var disk, net time.Duration
		for _, spec := range in.Specs {
			elem := spec.ElemSize
			subLimit := spec.SubchunkBytes
			if subLimit <= 0 {
				subLimit = cfg.SubchunkBytes
			}
			if subLimit <= 0 {
				subLimit = core.DefaultSubchunkBytes
			}
			for _, p := range core.PlaceChunks(spec, cfg.NumServers, nil) {
				if p.Server != s {
					continue
				}
				for _, sub := range array.SplitContiguous(spec.Disk.Chunk(p.Chunk), elem, subLimit) {
					subBytes := sub.NumElems() * int64(elem)
					if !in.FastDisk {
						if in.Write {
							disk += in.Disk.WriteCost(int(subBytes), false)
						} else {
							disk += in.Disk.ReadCost(int(subBytes), false, false)
						}
					}
					// Network: one request and one data transfer per
					// piece; the data serializes through the server's
					// port, the small request costs a round of latency.
					pieces, crossPieces := 0, 0
					crossBytes := int64(0)
					for c := 0; c < spec.Mem.NumChunks(); c++ {
						mchunk := spec.Mem.Chunk(c)
						sect, ok := array.Intersect(mchunk, sub)
						if !ok {
							continue
						}
						pieces++
						n := sect.NumElems() * int64(elem)
						clientBytes[c] += n
						if in.Topo != nil && in.Topo.CrossRack(c, cfg.ServerRank(s)) {
							crossPieces++
							crossBytes += n
						}
						if _, contig := array.ContiguousIn(mchunk, sect); !contig {
							clientReorg[c] += n
						}
						if _, contig := array.ContiguousIn(sub, sect); !contig && pieces > 1 {
							// Server-side reorganization of this piece.
							net += bytesTime(n, cfg.CopyRate)
						}
					}
					net += time.Duration(pieces) * 2 * link.Latency
					if in.Topo != nil {
						// Sender CPU occupancy for request and data, and
						// the spine round trip for cross-rack pieces.
						net += time.Duration(pieces) * 2 * in.Topo.SendOverhead
						net += time.Duration(crossPieces) * 2 * in.Topo.CrossLatency
					}
					net += bytesTime(subBytes-crossBytes, link.Bandwidth)
					net += bytesTime(crossBytes, uplink)
				}
			}
		}
		b.PerServerDisk[s] = disk
		b.PerServerNet[s] = net
		if cfg.Pipeline > 1 || !in.Write && cfg.ReadAhead >= 1 {
			// Overlapped gathering and disk I/O — a write pipeline, or
			// reads kept outstanding ahead of the scatter: the slower
			// side dominates, the faster hides behind it.
			if disk > net {
				b.PerServer[s] = disk
			} else {
				b.PerServer[s] = net
			}
		} else {
			b.PerServer[s] = disk + net
		}
	}

	for c := 0; c < cfg.NumClients; c++ {
		b.PerClient[c] = bytesTime(clientBytes[c], link.Bandwidth) +
			bytesTime(clientReorg[c], cfg.CopyRate)
	}

	worst := time.Duration(0)
	for _, d := range b.PerServer {
		if d > worst {
			worst = d
		}
	}
	for _, d := range b.PerClient {
		if d > worst {
			worst = d
		}
	}
	b.Elapsed = b.Startup + worst
	return b
}
