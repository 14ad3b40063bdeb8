// Package persistmem is a full reproduction, in pure Go, of "Fast and
// Flexible Persistence: The Magic Potion for Fault-Tolerance, Scalability
// and Performance in Online Data Stores" (Mehra & Fineberg, HP, IPDPS
// 2004).
//
// The paper attaches non-volatile memory devices (NPMUs) to a ServerNet
// system-area network, manages them with a Persistent Memory Manager
// process pair, and re-points the NonStop log writer (ADP) at persistent
// memory so transactions commit at memory speed instead of disk speed.
// Because the original testbed is 2004 HP NonStop hardware, this
// repository rebuilds the entire stack as a deterministic discrete-event
// simulation: the RDMA fabric, disk models, NSK-style cluster runtime
// with process pairs, the NPMU/PMM/client-library persistent-memory
// system, a transaction-processing stack (TMF, DP2, ADP, locks, audit
// trail, recovery), the paper's hot-stock benchmark, and harnesses that
// regenerate both of the paper's figures.
//
// Start with internal/pmclient's Examples for a first program on the PM
// node, internal/ods for the assembled store, and cmd/figures to
// regenerate the evaluation. The architecture and experiment index live
// in DESIGN.md; measured results in EXPERIMENTS.md.
package persistmem
