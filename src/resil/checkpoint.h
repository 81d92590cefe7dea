// Checkpoint/restart snapshots for the distributed forest (ISSUE 2 tentpole).
//
// A snapshot is a single self-describing binary file:
//
//   Header       magic "ESAMRCKP", format version, dimension, writer rank
//                count, tree count, connectivity id, global octant count,
//                user step counter, section count, header CRC32C
//   SectionDesc  per section: name, absolute payload offset, byte count,
//                CRC32C, aux word (per-octant width for field sections)
//   payloads     "ranges"  per-writer-rank octant counts (u64 x P_writer)
//                "octants" the global SFC octant sequence (OctMsg records)
//                one section per named per-octant payload field (doubles)
//
// Writes are collective: every rank contributes its local SFC segment
// (allgatherv), rank 0 assembles the file and writes it *atomically* — to a
// temp file, fsync-free temp + std::rename — so a crash mid-write can never
// clobber a previous snapshot. Every section carries a CRC32C; restore
// validates the header CRC and every section CRC before trusting a byte, and
// a mismatch throws CheckpointCorrupt naming the section and file offset.
//
// The commit path is write-then-reread-verify: rank 0 rereads the temp file
// through the same CRC validation restore uses before renaming it into
// place, retrying a bounded number of times. Injected disk faults
// (InjectConfig::disk_fault_stride: torn tail, truncation, transient EIO)
// are keyed on (seed, step, attempt), so a retry draws a fresh hash and the
// loop converges; persistent failure throws CheckpointCorrupt. DiskFaultStats
// counts what the loop saw.
//
// Restore is *elastic*: the reader rank count is independent of the writer's.
// The global octant sequence is rebuilt on rank 0, wrapped into a Forest via
// Forest::from_local_leaves, and redistributed by the existing
// Forest::partition() path (partition_payload when fields ride along), so a
// P=7 snapshot restores bit-identically onto any rank count — the restored
// partition is the canonical equal SFC split, which is exactly what the
// writer held if its last mutation was a partition.
//
// CheckpointRing retains the last K snapshots in a directory so restore can
// fall back past a corrupted newest entry (restore_latest quarantines bad
// files by renaming them *.bad).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "forest/delta.h"
#include "forest/forest.h"

namespace esamr::resil {

inline constexpr std::uint32_t checkpoint_format_version = 1;

/// Thrown when a snapshot fails validation: bad magic, header CRC mismatch,
/// or a section CRC mismatch. The message names the file, the section, and
/// the byte offset so the operator can tell *what* rotted, not just that
/// something did. resil::supervise treats it as a recoverable fault.
class CheckpointCorrupt : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A named per-octant payload field: `data` holds per_oct doubles per local
/// octant, in local SFC order (element order of Forest::for_each_local).
struct NamedField {
  std::string name;
  int per_oct = 1;
  std::vector<double> data;
};

/// Structural fingerprint of a connectivity (trees, vertex ids, coordinates,
/// face graph). Stored in the header and checked on restore so a snapshot
/// cannot silently be loaded onto the wrong macro mesh.
template <int Dim>
std::uint64_t connectivity_id(const forest::Connectivity<Dim>& conn);

/// Collective: snapshot the forest plus `fields` to `path`. Only rank 0
/// touches the filesystem; `path` is ignored on other ranks. `step` is an
/// opaque user counter (e.g. the time-step index) stored in the header.
template <int Dim>
void write_checkpoint(const forest::Forest<Dim>& f, std::uint64_t conn_id, std::uint64_t step,
                      const std::vector<NamedField>& fields, const std::string& path);

template <int Dim>
struct Restored {
  forest::Forest<Dim> forest;
  /// Fields redistributed to follow the restored partition (local SFC order).
  std::vector<NamedField> fields;
  std::uint64_t step = 0;
  /// Snapshot bytes read from disk (replicated to all ranks).
  std::int64_t bytes_read = 0;
};

/// Collective, elastic: load `path` (rank 0 reads and validates all CRCs)
/// and rebuild the forest at the *current* comm size via the partition path.
/// Throws CheckpointCorrupt on validation failure, std::runtime_error when
/// the snapshot does not match (dim, connectivity id).
template <int Dim>
Restored<Dim> restore_checkpoint(par::Comm& comm, const forest::Connectivity<Dim>& conn,
                                 std::uint64_t conn_id, const std::string& path);

/// A directory holding the last `keep` snapshots: full snapshots
/// ckpt-<seq>.esnap interleaved with delta checkpoints ckpt-<seq>.edelta,
/// seq strictly increasing across both kinds. Mutating members are
/// rank-0-only (the collective wrappers below enforce that); the class
/// itself does no communication.
class CheckpointRing {
 public:
  CheckpointRing(std::string dir, int keep);

  const std::string& dir() const { return dir_; }
  int keep() const { return keep_; }

  /// Existing snapshot/delta paths, oldest to newest (ignores *.tmp / *.bad).
  std::vector<std::string> entries() const;
  /// True iff the entry path names a delta checkpoint (.edelta).
  static bool is_delta(const std::string& path);
  /// Newest entry path (either kind), or "" when the ring is empty.
  std::string newest() const;
  /// Path the next full snapshot should be committed to (seq = newest + 1).
  std::string next_path() const;
  /// Path the next delta checkpoint should be committed to (same seq line).
  std::string next_delta_path() const;
  /// Rename the newest entry to <name>.bad so restores fall back past it.
  void quarantine_newest();
  /// Delete oldest entries until at most `keep` remain — but never the
  /// newest full snapshot or anything newer than it (the live delta chain).
  void prune();

 private:
  std::string dir_;
  int keep_;
};

/// Collective: true iff the ring has at least one restorable entry. Only
/// rank 0 lists the directory; the verdict is broadcast so every rank takes
/// the same restore-vs-cold-start branch (a rank-local entries() check would
/// be a classic collective-divergence hazard under concurrent pruning).
bool ring_probe(par::Comm& comm, const CheckpointRing& ring);

/// Collective: write the next ring entry and prune old ones.
template <int Dim>
void write_checkpoint_ring(const forest::Forest<Dim>& f, std::uint64_t conn_id,
                           std::uint64_t step, const std::vector<NamedField>& fields,
                           CheckpointRing& ring);

/// Collective: restore the newest ring entry whose CRCs validate. Corrupt
/// entries are quarantined and counted in *fallbacks (if non-null), and the
/// next-older entry is tried. Throws CheckpointCorrupt when every entry is
/// corrupt and std::runtime_error when the ring is empty. Full snapshots
/// only — a delta chain is restored with restore_latest_chain.
template <int Dim>
Restored<Dim> restore_latest(par::Comm& comm, const forest::Connectivity<Dim>& conn,
                             std::uint64_t conn_id, CheckpointRing& ring,
                             int* fallbacks = nullptr);

/// Collective: append a delta checkpoint to the ring. `delta` holds the
/// change regions accumulated since the previous ring write (the caller
/// clears it afterwards); the file stores the replicated regions, the
/// current leaves inside them (global SFC order), and the `fields` values on
/// exactly those leaves — so fields mutated outside the delta regions since
/// the base snapshot need a full snapshot instead. The file is CRC-sealed
/// like a full snapshot and chained to its predecessor by (base seq,
/// prev seq, prev header CRC). Falls back to a full write_checkpoint_ring
/// (collective decision) when the ring has no full-snapshot anchor or the
/// delta overflowed. OpStats::ckpt_delta_bytes counts the
/// bytes of delta files committed.
template <int Dim>
void write_delta_checkpoint_ring(const forest::Forest<Dim>& f, std::uint64_t conn_id,
                                 std::uint64_t step, const std::vector<NamedField>& fields,
                                 forest::DeltaSet<Dim>& delta, CheckpointRing& ring);

/// Collective: restore the newest full snapshot whose CRCs validate, then
/// replay the delta chain on top of it in sequence order. The chain stops at
/// the first delta that is corrupt or whose (base seq, prev seq, prev CRC)
/// link does not match — the corrupt file is quarantined, later deltas are
/// orphaned, and the state restored is the longest valid prefix (worst case:
/// the full snapshot alone). Corrupt files quarantined are counted in
/// *fallbacks. Elastic like restore_checkpoint.
template <int Dim>
Restored<Dim> restore_latest_chain(par::Comm& comm, const forest::Connectivity<Dim>& conn,
                                   std::uint64_t conn_id, CheckpointRing& ring,
                                   int* fallbacks = nullptr);

/// How corrupt_checkpoint damages a snapshot file.
enum class CorruptKind {
  byte_flip,      ///< flip one seeded bit inside the section data region
  truncate_tail,  ///< cut a seeded number of bytes off the end of the file
  torn_write,     ///< garble a seeded-length run of tail bytes in place
};

const char* corrupt_kind_name(CorruptKind k);

/// Fault-injection helper for tests: damage the snapshot at `path` so the
/// next restore must fail validation (section CRC mismatch for byte_flip and
/// torn_write, out-of-range section or short read for truncate_tail). The
/// damage site/extent is a pure function of `seed`.
void corrupt_checkpoint(const std::string& path, CorruptKind kind, std::uint64_t seed);

/// Back-compat wrapper: corrupt_checkpoint(path, CorruptKind::byte_flip, seed).
void corrupt_checkpoint_byte(const std::string& path, std::uint64_t seed);

/// Process-wide counters for the checkpoint commit path (rank 0 writes, but
/// the counters are process globals so tests can read them after par::run).
struct DiskFaultStats {
  std::int64_t commits = 0;          ///< checkpoints successfully published
  std::int64_t write_retries = 0;    ///< attempts discarded and retried
  std::int64_t eio_injected = 0;     ///< transient EIO faults drawn
  std::int64_t torn_injected = 0;    ///< torn-tail faults drawn
  std::int64_t trunc_injected = 0;   ///< truncation faults drawn
  std::int64_t verify_failures = 0;  ///< reread validations that failed
};

DiskFaultStats disk_fault_stats();
void reset_disk_fault_stats();

extern template std::uint64_t connectivity_id<2>(const forest::Connectivity<2>&);
extern template std::uint64_t connectivity_id<3>(const forest::Connectivity<3>&);
extern template void write_checkpoint<2>(const forest::Forest<2>&, std::uint64_t, std::uint64_t,
                                         const std::vector<NamedField>&, const std::string&);
extern template void write_checkpoint<3>(const forest::Forest<3>&, std::uint64_t, std::uint64_t,
                                         const std::vector<NamedField>&, const std::string&);
extern template Restored<2> restore_checkpoint<2>(par::Comm&, const forest::Connectivity<2>&,
                                                  std::uint64_t, const std::string&);
extern template Restored<3> restore_checkpoint<3>(par::Comm&, const forest::Connectivity<3>&,
                                                  std::uint64_t, const std::string&);
extern template void write_checkpoint_ring<2>(const forest::Forest<2>&, std::uint64_t,
                                              std::uint64_t, const std::vector<NamedField>&,
                                              CheckpointRing&);
extern template void write_checkpoint_ring<3>(const forest::Forest<3>&, std::uint64_t,
                                              std::uint64_t, const std::vector<NamedField>&,
                                              CheckpointRing&);
extern template Restored<2> restore_latest<2>(par::Comm&, const forest::Connectivity<2>&,
                                              std::uint64_t, CheckpointRing&, int*);
extern template Restored<3> restore_latest<3>(par::Comm&, const forest::Connectivity<3>&,
                                              std::uint64_t, CheckpointRing&, int*);
extern template void write_delta_checkpoint_ring<2>(const forest::Forest<2>&, std::uint64_t,
                                                    std::uint64_t,
                                                    const std::vector<NamedField>&,
                                                    forest::DeltaSet<2>&, CheckpointRing&);
extern template void write_delta_checkpoint_ring<3>(const forest::Forest<3>&, std::uint64_t,
                                                    std::uint64_t,
                                                    const std::vector<NamedField>&,
                                                    forest::DeltaSet<3>&, CheckpointRing&);
extern template Restored<2> restore_latest_chain<2>(par::Comm&, const forest::Connectivity<2>&,
                                                    std::uint64_t, CheckpointRing&, int*);
extern template Restored<3> restore_latest_chain<3>(par::Comm&, const forest::Connectivity<3>&,
                                                    std::uint64_t, CheckpointRing&, int*);

}  // namespace esamr::resil
