#include "resil/checkpoint.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <array>

#include "forest/stats.h"
#include "io/checked_file.h"
#include "par/inject.h"
#include "resil/crc32c.h"

namespace esamr::resil {

namespace {

namespace fs = std::filesystem;

constexpr char magic_bytes[8] = {'E', 'S', 'A', 'M', 'R', 'C', 'K', 'P'};
constexpr std::size_t max_section_name = 23;  // + NUL in SectionDesc::name

/// Fixed on-disk header. All fields little-endian on every platform we
/// target; the layout is padding-free by construction (static_assert below).
struct Header {
  char magic[8];
  std::uint32_t version;
  std::uint32_t dim;
  std::uint32_t writer_ranks;
  std::uint32_t num_trees;
  std::uint64_t conn_id;
  std::uint64_t num_octants;
  std::uint64_t step;
  std::uint32_t num_sections;
  std::uint32_t header_crc;  ///< CRC32C of all preceding header bytes
};
static_assert(sizeof(Header) == 56 && std::is_trivially_copyable_v<Header>);
constexpr std::size_t header_crc_span = offsetof(Header, header_crc);

struct SectionDesc {
  char name[24];         ///< NUL-terminated section name
  std::uint64_t offset;  ///< absolute file offset of the payload
  std::uint64_t nbytes;
  std::uint32_t crc;  ///< CRC32C of the payload
  std::uint32_t aux;  ///< per-octant double count for field sections, else 0
};
static_assert(sizeof(SectionDesc) == 48 && std::is_trivially_copyable_v<SectionDesc>);

/// Fully validated in-memory snapshot (rank 0 only).
struct Image {
  std::uint64_t step = 0;
  std::int64_t bytes_read = 0;
  std::uint32_t header_crc = 0;         ///< this file's header CRC (chain link)
  std::vector<forest::OctMsg> octants;  ///< global SFC sequence
  std::vector<NamedField> fields;       ///< global (all-octant) data
};

/// Fully validated in-memory delta checkpoint (rank 0 only). `octants` holds
/// the leaves inside the delta regions at write time; `fields` their values.
struct DeltaImage {
  std::uint64_t step = 0;
  std::int64_t bytes_read = 0;
  std::uint32_t header_crc = 0;
  std::uint64_t base_seq = 0;  ///< seq of the full-snapshot anchor
  std::uint64_t prev_seq = 0;  ///< seq of the immediate predecessor entry
  std::uint64_t prev_crc = 0;  ///< predecessor's header CRC
  std::vector<forest::OctMsg> regions;
  std::vector<forest::OctMsg> octants;
  std::vector<NamedField> fields;
};

[[noreturn]] void corrupt(const std::string& path, const std::string& what) {
  throw CheckpointCorrupt("checkpoint " + path + ": " + what);
}

// Process-wide commit-path counters (see disk_fault_stats in the header).
std::atomic<std::int64_t> g_commits{0};
std::atomic<std::int64_t> g_write_retries{0};
std::atomic<std::int64_t> g_eio{0};
std::atomic<std::int64_t> g_torn{0};
std::atomic<std::int64_t> g_trunc{0};
std::atomic<std::int64_t> g_verify_failures{0};

/// Apply an injected disk fault to the assembled temp file before the
/// reread-verify pass. The damage site is hashed from (seed, step, attempt)
/// so it is deterministic yet fresh per retry.
void apply_disk_fault(const std::string& tmp, par::detail::DiskFault fault, std::uint64_t seed,
                      std::uint64_t step, std::uint64_t attempt) {
  const std::uint64_t h =
      par::detail::mix64(par::detail::mix64(seed ^ 0xd15cda7aULL ^ step) ^ attempt);
  const auto fsize = static_cast<std::uint64_t>(fs::file_size(tmp));
  if (fsize == 0) return;
  if (fault == par::detail::DiskFault::truncate) {
    ++g_trunc;
    fs::resize_file(tmp, fsize - (1 + h % fsize));
    return;
  }
  // torn_tail: garble up to 64 trailing bytes in place (a torn rewrite).
  ++g_torn;
  const std::uint64_t len = 1 + h % (fsize < 64 ? fsize : 64);
  const auto mask = static_cast<unsigned char>((h >> 29) | 1u);  // nonzero
  std::vector<unsigned char> tail(len);
  io::CheckedFile fp(tmp, "r+b");
  fp.seek(static_cast<long>(fsize - len));
  fp.read_exact(tail.data(), tail.size());
  for (unsigned char& b : tail) b = static_cast<unsigned char>(b ^ mask);
  fp.seek(static_cast<long>(fsize - len));
  fp.write(tail.data(), tail.size());
  fp.close();
}

SectionDesc make_desc(const std::string& name, std::uint64_t offset, const void* data,
                      std::uint64_t nbytes, std::uint32_t aux) {
  SectionDesc d{};
  std::snprintf(d.name, sizeof(d.name), "%s", name.c_str());
  d.offset = offset;
  d.nbytes = nbytes;
  d.crc = crc32c(data, nbytes);
  d.aux = aux;
  return d;
}

/// Read and CRC-validate a snapshot on the calling rank (no communication).
Image load_image(const std::string& path, int dim, std::uint64_t conn_id, int num_trees) {
  io::CheckedFile fp(path, "rb");
  const long fsize = fp.size();
  if (fsize < static_cast<long>(sizeof(Header))) corrupt(path, "file shorter than header");

  Header h{};
  fp.read_exact(&h, sizeof(h));
  if (std::memcmp(h.magic, magic_bytes, sizeof(magic_bytes)) != 0) corrupt(path, "bad magic");
  if (crc32c(&h, header_crc_span) != h.header_crc) corrupt(path, "header CRC mismatch");
  if (h.version != checkpoint_format_version) {
    throw std::runtime_error("checkpoint " + path + ": unsupported format version " +
                             std::to_string(h.version));
  }
  if (h.dim != static_cast<std::uint32_t>(dim) ||
      h.num_trees != static_cast<std::uint32_t>(num_trees) || h.conn_id != conn_id) {
    throw std::runtime_error("checkpoint " + path +
                             ": snapshot does not match this forest (dim/trees/connectivity)");
  }

  std::vector<SectionDesc> descs(h.num_sections);
  fp.read_exact(descs.data(), descs.size() * sizeof(SectionDesc));
  const std::uint64_t data_start = sizeof(Header) + descs.size() * sizeof(SectionDesc);

  Image img;
  img.step = h.step;
  img.bytes_read = fsize;
  img.header_crc = h.header_crc;
  bool have_ranges = false, have_octants = false;
  std::vector<std::uint64_t> writer_counts;
  for (const SectionDesc& d : descs) {
    const std::string name(d.name, strnlen(d.name, sizeof(d.name)));
    if (d.offset < data_start || d.offset + d.nbytes > static_cast<std::uint64_t>(fsize)) {
      corrupt(path, "section '" + name + "' extends past end of file");
    }
    std::vector<std::byte> buf(d.nbytes);
    fp.seek(static_cast<long>(d.offset));
    fp.read_exact(buf.data(), buf.size());
    const std::uint32_t got = crc32c(buf.data(), buf.size());
    if (got != d.crc) {
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "CRC mismatch in section '%s' at offset %llu (stored 0x%08x, computed 0x%08x)",
                    name.c_str(), static_cast<unsigned long long>(d.offset), d.crc, got);
      corrupt(path, msg);
    }
    if (name == "ranges") {
      if (d.nbytes != h.writer_ranks * sizeof(std::uint64_t)) {
        corrupt(path, "'ranges' section size does not match writer rank count");
      }
      writer_counts.resize(h.writer_ranks);
      std::memcpy(writer_counts.data(), buf.data(), buf.size());
      have_ranges = true;
    } else if (name == "octants") {
      if (d.nbytes != h.num_octants * sizeof(forest::OctMsg)) {
        corrupt(path, "'octants' section size does not match octant count");
      }
      img.octants.resize(h.num_octants);
      std::memcpy(img.octants.data(), buf.data(), buf.size());
      have_octants = true;
    } else {
      if (d.aux == 0 || d.nbytes != h.num_octants * d.aux * sizeof(double)) {
        corrupt(path, "field section '" + name + "' has inconsistent size");
      }
      NamedField f;
      f.name = name;
      f.per_oct = static_cast<int>(d.aux);
      f.data.resize(h.num_octants * d.aux);
      std::memcpy(f.data.data(), buf.data(), buf.size());
      img.fields.push_back(std::move(f));
    }
  }
  if (!have_ranges || !have_octants) corrupt(path, "missing 'ranges' or 'octants' section");
  std::uint64_t total = 0;
  for (const std::uint64_t c : writer_counts) total += c;
  if (total != h.num_octants) corrupt(path, "'ranges' does not sum to the octant count");
  return img;
}

/// Read and CRC-validate a delta checkpoint on the calling rank. Shares the
/// container format with full snapshots; the payload is the "dmeta" chain
/// link, the replicated delta regions, the leaves inside them, and the field
/// values on exactly those leaves.
DeltaImage load_delta_image(const std::string& path, int dim, std::uint64_t conn_id,
                            int num_trees) {
  io::CheckedFile fp(path, "rb");
  const long fsize = fp.size();
  if (fsize < static_cast<long>(sizeof(Header))) corrupt(path, "file shorter than header");

  Header h{};
  fp.read_exact(&h, sizeof(h));
  if (std::memcmp(h.magic, magic_bytes, sizeof(magic_bytes)) != 0) corrupt(path, "bad magic");
  if (crc32c(&h, header_crc_span) != h.header_crc) corrupt(path, "header CRC mismatch");
  if (h.version != checkpoint_format_version) {
    throw std::runtime_error("checkpoint " + path + ": unsupported format version " +
                             std::to_string(h.version));
  }
  if (h.dim != static_cast<std::uint32_t>(dim) ||
      h.num_trees != static_cast<std::uint32_t>(num_trees) || h.conn_id != conn_id) {
    throw std::runtime_error("checkpoint " + path +
                             ": snapshot does not match this forest (dim/trees/connectivity)");
  }

  std::vector<SectionDesc> descs(h.num_sections);
  fp.read_exact(descs.data(), descs.size() * sizeof(SectionDesc));
  const std::uint64_t data_start = sizeof(Header) + descs.size() * sizeof(SectionDesc);

  DeltaImage img;
  img.step = h.step;
  img.bytes_read = fsize;
  img.header_crc = h.header_crc;
  bool have_meta = false, have_regions = false, have_octants = false;
  for (const SectionDesc& d : descs) {
    const std::string name(d.name, strnlen(d.name, sizeof(d.name)));
    if (d.offset < data_start || d.offset + d.nbytes > static_cast<std::uint64_t>(fsize)) {
      corrupt(path, "section '" + name + "' extends past end of file");
    }
    std::vector<std::byte> buf(d.nbytes);
    fp.seek(static_cast<long>(d.offset));
    fp.read_exact(buf.data(), buf.size());
    const std::uint32_t got = crc32c(buf.data(), buf.size());
    if (got != d.crc) {
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "CRC mismatch in section '%s' at offset %llu (stored 0x%08x, computed 0x%08x)",
                    name.c_str(), static_cast<unsigned long long>(d.offset), d.crc, got);
      corrupt(path, msg);
    }
    if (name == "dmeta") {
      if (d.nbytes != 3 * sizeof(std::uint64_t)) corrupt(path, "'dmeta' section has wrong size");
      std::uint64_t m[3];
      std::memcpy(m, buf.data(), sizeof(m));
      img.base_seq = m[0];
      img.prev_seq = m[1];
      img.prev_crc = m[2];
      have_meta = true;
    } else if (name == "dregions") {
      if (d.nbytes % sizeof(forest::OctMsg) != 0) {
        corrupt(path, "'dregions' section size is not a whole record count");
      }
      img.regions.resize(d.nbytes / sizeof(forest::OctMsg));
      std::memcpy(img.regions.data(), buf.data(), buf.size());
      have_regions = true;
    } else if (name == "doctants") {
      if (d.nbytes != h.num_octants * sizeof(forest::OctMsg)) {
        corrupt(path, "'doctants' section size does not match octant count");
      }
      img.octants.resize(h.num_octants);
      std::memcpy(img.octants.data(), buf.data(), buf.size());
      have_octants = true;
    } else {
      if (d.aux == 0 || d.nbytes != h.num_octants * d.aux * sizeof(double)) {
        corrupt(path, "field section '" + name + "' has inconsistent size");
      }
      NamedField f;
      f.name = name;
      f.per_oct = static_cast<int>(d.aux);
      f.data.resize(h.num_octants * d.aux);
      std::memcpy(f.data.data(), buf.data(), buf.size());
      img.fields.push_back(std::move(f));
    }
  }
  if (!have_meta || !have_regions || !have_octants) {
    corrupt(path, "missing 'dmeta', 'dregions' or 'doctants' section");
  }
  return img;
}

/// The header CRC of an existing ring entry (the chain link the next delta
/// must carry). False when the file cannot be read or its header is bad.
bool peek_header_crc(const std::string& path, std::uint32_t& out) {
  try {
    io::CheckedFile fp(path, "rb");
    if (fp.size() < static_cast<long>(sizeof(Header))) return false;
    Header h{};
    fp.read_exact(&h, sizeof(h));
    if (std::memcmp(h.magic, magic_bytes, sizeof(magic_bytes)) != 0) return false;
    if (crc32c(&h, header_crc_span) != h.header_crc) return false;
    out = h.header_crc;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// Rank-0 atomic publish with write-then-reread-verify, shared by the full
/// and delta writers: assemble under a temp name via `write_body`, reread the
/// temp through `verify` (which must throw on bad bytes — the same CRC
/// validation restore uses), and only then rename over the target. Injected
/// disk faults (torn tail, truncation, transient EIO) are keyed on
/// (seed, step, attempt), so each retry draws a fresh hash and the bounded
/// loop converges; persistent failure throws CheckpointCorrupt.
template <typename WriteBody, typename Verify>
void publish_verified(const std::string& path, std::uint64_t step, const par::InjectConfig& inj,
                      WriteBody&& write_body, Verify&& verify) {
  const std::string tmp = path + ".tmp";
  constexpr int max_write_attempts = 5;
  for (int attempt = 0;; ++attempt) {
    const auto fault = par::detail::disk_fault(inj, step, static_cast<std::uint64_t>(attempt));
    if (fault == par::detail::DiskFault::eio) {
      // The device refused the write; nothing was committed this attempt.
      ++g_eio;
      if (attempt + 1 >= max_write_attempts) {
        corrupt(path, "persistent EIO while writing snapshot");
      }
      ++g_write_retries;
      continue;
    }
    {
      io::CheckedFile fp(tmp, "wb");
      write_body(fp);
      fp.close();
    }
    if (fault != par::detail::DiskFault::none) {
      apply_disk_fault(tmp, fault, inj.seed, step, static_cast<std::uint64_t>(attempt));
    }
    try {
      verify(tmp);
      break;  // the bytes on disk round-trip every CRC: safe to publish
    } catch (const std::runtime_error&) {
      // CheckpointCorrupt or a short read: the attempt's bytes are bad.
      ++g_verify_failures;
      if (attempt + 1 >= max_write_attempts) {
        std::remove(tmp.c_str());
        corrupt(path, "write verification failed after " + std::to_string(max_write_attempts) +
                          " attempts");
      }
      ++g_write_retries;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("checkpoint publish: cannot rename " + tmp + " to " + path);
  }
  ++g_commits;
}

/// Pack restore metadata (step, bytes, field names/widths) for the bcast
/// that tells non-root ranks what the snapshot contains.
std::vector<std::byte> pack_meta(const Image& img) {
  std::vector<std::byte> out;
  const auto put = [&out](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    out.insert(out.end(), b, b + n);
  };
  const auto put_u64 = [&put](std::uint64_t v) { put(&v, sizeof(v)); };
  put_u64(img.step);
  put_u64(static_cast<std::uint64_t>(img.bytes_read));
  put_u64(img.fields.size());
  for (const NamedField& f : img.fields) {
    put_u64(static_cast<std::uint64_t>(f.per_oct));
    put_u64(f.name.size());
    put(f.name.data(), f.name.size());
  }
  return out;
}

struct Meta {
  std::uint64_t step = 0;
  std::int64_t bytes_read = 0;
  std::vector<std::pair<std::string, int>> fields;  // (name, per_oct)
};

Meta unpack_meta(const std::vector<std::byte>& in) {
  std::size_t pos = 0;
  const auto get = [&](void* p, std::size_t n) {
    std::memcpy(p, in.data() + pos, n);
    pos += n;
  };
  const auto get_u64 = [&get] {
    std::uint64_t v;
    get(&v, sizeof(v));
    return v;
  };
  Meta m;
  m.step = get_u64();
  m.bytes_read = static_cast<std::int64_t>(get_u64());
  const std::uint64_t nf = get_u64();
  for (std::uint64_t i = 0; i < nf; ++i) {
    const int per_oct = static_cast<int>(get_u64());
    std::string name(get_u64(), '\0');
    get(name.data(), name.size());
    m.fields.emplace_back(std::move(name), per_oct);
  }
  return m;
}

/// The elastic half of restore: rank 0 holds the full snapshot; everyone
/// builds a forest (empty away from rank 0) and the existing partition path
/// redistributes octants and interleaved fields to the canonical SFC split.
template <int Dim>
Restored<Dim> distribute(par::Comm& comm, const forest::Connectivity<Dim>& conn, Image&& img) {
  std::vector<std::byte> meta;
  if (comm.rank() == 0) meta = pack_meta(img);
  comm.bcast_bytes(meta, 0);
  const Meta m = unpack_meta(meta);

  std::vector<std::vector<forest::Octant<Dim>>> trees(
      static_cast<std::size_t>(conn.num_trees()));
  if (comm.rank() == 0) {
    for (const forest::OctMsg& om : img.octants) {
      if (om.tree < 0 || om.tree >= conn.num_trees()) {
        throw CheckpointCorrupt("checkpoint: octant names tree " + std::to_string(om.tree) +
                                " outside the connectivity");
      }
      forest::Octant<Dim> o;
      o.x = om.x;
      o.y = om.y;
      if constexpr (Dim == 3) o.z = om.z;
      o.level = static_cast<std::int8_t>(om.level);
      trees[static_cast<std::size_t>(om.tree)].push_back(o);
    }
  }

  Restored<Dim> out{forest::Forest<Dim>::from_local_leaves(comm, &conn, std::move(trees)),
                    {},
                    m.step,
                    m.bytes_read};

  int total_per_oct = 0;
  for (const auto& [name, w] : m.fields) total_per_oct += w;
  if (total_per_oct == 0) {
    out.forest.partition();
    return out;
  }

  // Interleave all fields per octant so one partition_payload call carries
  // every field with the octants (a second call would move nothing: the
  // partition is already canonical after the first).
  const std::size_t n0 = static_cast<std::size_t>(comm.rank() == 0 ? img.octants.size() : 0);
  std::vector<double> payload(n0 * static_cast<std::size_t>(total_per_oct));
  if (comm.rank() == 0) {
    std::size_t off = 0;
    for (const NamedField& f : img.fields) {
      const auto w = static_cast<std::size_t>(f.per_oct);
      for (std::size_t i = 0; i < n0; ++i) {
        std::copy_n(f.data.begin() + static_cast<std::ptrdiff_t>(i * w), w,
                    payload.begin() +
                        static_cast<std::ptrdiff_t>(i * static_cast<std::size_t>(total_per_oct) +
                                                    off));
      }
      off += w;
    }
  }
  out.forest.partition_payload(nullptr, total_per_oct, payload);

  const auto n_local = static_cast<std::size_t>(out.forest.num_local());
  std::size_t off = 0;
  for (const auto& [name, w] : m.fields) {
    NamedField f;
    f.name = name;
    f.per_oct = w;
    f.data.resize(n_local * static_cast<std::size_t>(w));
    for (std::size_t i = 0; i < n_local; ++i) {
      std::copy_n(payload.begin() +
                      static_cast<std::ptrdiff_t>(i * static_cast<std::size_t>(total_per_oct) +
                                                  off),
                  static_cast<std::size_t>(w),
                  f.data.begin() + static_cast<std::ptrdiff_t>(i * static_cast<std::size_t>(w)));
    }
    off += static_cast<std::size_t>(w);
    out.fields.push_back(std::move(f));
  }
  return out;
}

std::uint64_t parse_seq(const fs::path& p) {
  const std::string stem = p.stem().string();  // "ckpt-<seq>"
  return std::stoull(stem.substr(5));
}

}  // namespace

template <int Dim>
std::uint64_t connectivity_id(const forest::Connectivity<Dim>& conn) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(Dim));
  mix(static_cast<std::uint64_t>(conn.num_trees()));
  for (const auto& tv : conn.tree_to_vertex()) {
    for (const int v : tv) mix(static_cast<std::uint64_t>(v));
  }
  for (const auto& vc : conn.vertex_coords()) {
    for (const double c : vc) mix(std::bit_cast<std::uint64_t>(c));
  }
  for (int t = 0; t < conn.num_trees(); ++t) {
    for (int f = 0; f < 2 * Dim; ++f) {
      const auto& fc = conn.face_connection(t, f);
      mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(fc.tree)));
      mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(fc.face)));
      for (int a = 0; a < 3; ++a) {
        mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(fc.xform.perm[a])));
        mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(fc.xform.sign[a])));
        mix(static_cast<std::uint64_t>(fc.xform.off[a]));
      }
    }
  }
  return h;
}

template <int Dim>
void write_checkpoint(const forest::Forest<Dim>& f, std::uint64_t conn_id, std::uint64_t step,
                      const std::vector<NamedField>& fields, const std::string& path) {
  par::Comm& comm = f.comm();
  const auto n_local = static_cast<std::size_t>(f.num_local());
  for (const NamedField& fld : fields) {
    if (fld.name.empty() || fld.name == "ranges" || fld.name == "octants" ||
        fld.name.size() > max_section_name) {
      throw std::runtime_error("write_checkpoint: bad field name '" + fld.name + "'");
    }
    if (fld.per_oct <= 0 || fld.data.size() != n_local * static_cast<std::size_t>(fld.per_oct)) {
      throw std::runtime_error("write_checkpoint: field '" + fld.name +
                               "' size does not match the local forest");
    }
  }

  // Gather the global SFC sequence and every field (rank order = SFC order).
  std::vector<forest::OctMsg> local;
  local.reserve(n_local);
  f.for_each_local([&local](int t, const forest::Octant<Dim>& o) {
    local.push_back(forest::OctMsg{t, o.x, o.y, Dim == 3 ? o.z : 0, o.level});
  });
  // The field vectors are rank-owned while the snapshot is gathered: every
  // byte must travel through the allgatherv, never via direct peer reads.
  std::vector<par::check::RegionGuard> field_guards;
  if (par::check::enabled(comm)) {
    field_guards.reserve(fields.size());
    for (const NamedField& fld : fields) {
      field_guards.emplace_back(comm, fld.data.data(), fld.data.size() * sizeof(double),
                                "checkpoint field");
    }
  }
  const auto oct_parts = comm.allgatherv(local);
  std::vector<std::vector<std::vector<double>>> field_parts;
  field_parts.reserve(fields.size());
  for (const NamedField& fld : fields) field_parts.push_back(comm.allgatherv(fld.data));

  if (comm.rank() == 0) {
    std::vector<forest::OctMsg> octants;
    for (const auto& part : oct_parts) octants.insert(octants.end(), part.begin(), part.end());
    std::vector<std::uint64_t> counts;
    for (const std::int64_t c : f.global_counts()) counts.push_back(static_cast<std::uint64_t>(c));

    Header h{};
    std::memcpy(h.magic, magic_bytes, sizeof(magic_bytes));
    h.version = checkpoint_format_version;
    h.dim = Dim;
    h.writer_ranks = static_cast<std::uint32_t>(comm.size());
    h.num_trees = static_cast<std::uint32_t>(f.num_trees());
    h.conn_id = conn_id;
    h.num_octants = octants.size();
    h.step = step;
    h.num_sections = static_cast<std::uint32_t>(2 + fields.size());
    h.header_crc = crc32c(&h, header_crc_span);

    std::vector<std::vector<double>> field_data;
    for (const auto& parts : field_parts) {
      std::vector<double> all;
      for (const auto& part : parts) all.insert(all.end(), part.begin(), part.end());
      field_data.push_back(std::move(all));
    }

    std::vector<SectionDesc> descs;
    std::uint64_t offset = sizeof(Header) + h.num_sections * sizeof(SectionDesc);
    const auto add = [&](const std::string& name, const void* data, std::uint64_t nbytes,
                         std::uint32_t aux) {
      descs.push_back(make_desc(name, offset, data, nbytes, aux));
      offset += nbytes;
    };
    add("ranges", counts.data(), counts.size() * sizeof(std::uint64_t), 0);
    add("octants", octants.data(), octants.size() * sizeof(forest::OctMsg), 0);
    for (std::size_t i = 0; i < fields.size(); ++i) {
      add(fields[i].name, field_data[i].data(), field_data[i].size() * sizeof(double),
          static_cast<std::uint32_t>(fields[i].per_oct));
    }

    publish_verified(
        path, step, comm.inject_config(),
        [&](io::CheckedFile& fp) {
          fp.write(&h, sizeof(h));
          fp.write(descs.data(), descs.size() * sizeof(SectionDesc));
          fp.write(counts.data(), counts.size() * sizeof(std::uint64_t));
          fp.write(octants.data(), octants.size() * sizeof(forest::OctMsg));
          for (const auto& fd : field_data) fp.write(fd.data(), fd.size() * sizeof(double));
        },
        [&](const std::string& tmp) { load_image(tmp, Dim, conn_id, f.num_trees()); });
  }
  comm.barrier();  // checkpoint completion is a collective postcondition
}

template <int Dim>
Restored<Dim> restore_checkpoint(par::Comm& comm, const forest::Connectivity<Dim>& conn,
                                 std::uint64_t conn_id, const std::string& path) {
  Image img;
  if (comm.rank() == 0) img = load_image(path, Dim, conn_id, conn.num_trees());
  return distribute<Dim>(comm, conn, std::move(img));
}

CheckpointRing::CheckpointRing(std::string dir, int keep) : dir_(std::move(dir)), keep_(keep) {
  if (keep_ < 1) throw std::runtime_error("CheckpointRing: keep must be >= 1");
  fs::create_directories(dir_);
}

std::vector<std::string> CheckpointRing::entries() const {
  std::vector<fs::path> found;
  for (const auto& e : fs::directory_iterator(dir_)) {
    const fs::path& p = e.path();
    if ((p.extension() == ".esnap" || p.extension() == ".edelta") &&
        p.stem().string().rfind("ckpt-", 0) == 0) {
      found.push_back(p);
    }
  }
  std::sort(found.begin(), found.end(),
            [](const fs::path& a, const fs::path& b) { return parse_seq(a) < parse_seq(b); });
  std::vector<std::string> out;
  out.reserve(found.size());
  for (const auto& p : found) out.push_back(p.string());
  return out;
}

bool CheckpointRing::is_delta(const std::string& path) {
  return fs::path(path).extension() == ".edelta";
}

std::string CheckpointRing::newest() const {
  const auto all = entries();
  return all.empty() ? std::string() : all.back();
}

std::string CheckpointRing::next_path() const {
  const auto all = entries();
  const std::uint64_t seq = all.empty() ? 0 : parse_seq(fs::path(all.back())) + 1;
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%08llu.esnap", static_cast<unsigned long long>(seq));
  return (fs::path(dir_) / name).string();
}

std::string CheckpointRing::next_delta_path() const {
  const auto all = entries();
  const std::uint64_t seq = all.empty() ? 0 : parse_seq(fs::path(all.back())) + 1;
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%08llu.edelta", static_cast<unsigned long long>(seq));
  return (fs::path(dir_) / name).string();
}

void CheckpointRing::quarantine_newest() {
  const std::string p = newest();
  if (p.empty()) return;
  fs::rename(p, p + ".bad");
}

void CheckpointRing::prune() {
  const auto all = entries();
  // The newest full snapshot anchors the live delta chain: neither it nor
  // anything newer may be pruned, or restore_latest_chain loses its base.
  std::size_t protect = all.size();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!is_delta(all[i])) protect = i;
  }
  std::size_t first = 0;
  while (static_cast<int>(all.size() - first) > keep_ && first < protect) {
    fs::remove(all[first]);
    ++first;
  }
}

template <int Dim>
void write_checkpoint_ring(const forest::Forest<Dim>& f, std::uint64_t conn_id,
                           std::uint64_t step, const std::vector<NamedField>& fields,
                           CheckpointRing& ring) {
  par::Comm& comm = f.comm();
  const std::string path = comm.rank() == 0 ? ring.next_path() : std::string();
  write_checkpoint(f, conn_id, step, fields, path);
  if (comm.rank() == 0) ring.prune();
}

bool ring_probe(par::Comm& comm, const CheckpointRing& ring) {
  int has = 0;
  if (comm.rank() == 0) has = ring.entries().empty() ? 0 : 1;
  return comm.bcast(has, 0) != 0;
}

template <int Dim>
Restored<Dim> restore_latest(par::Comm& comm, const forest::Connectivity<Dim>& conn,
                             std::uint64_t conn_id, CheckpointRing& ring, int* fallbacks) {
  // Rank 0 walks the ring newest-to-oldest, quarantining corrupt entries,
  // then broadcasts whether (and with how many fallbacks) a snapshot loaded.
  Image img;
  std::uint64_t status = 1;  // 0 = ok, 1 = empty ring, 2 = all entries corrupt
  std::string err;
  int falls = 0;
  if (comm.rank() == 0) {
    const auto paths = ring.entries();
    if (paths.empty()) {
      err = "checkpoint ring empty: " + ring.dir();
    } else {
      status = 2;
      for (auto it = paths.rbegin(); it != paths.rend(); ++it) {
        try {
          img = load_image(*it, Dim, conn_id, conn.num_trees());
          status = 0;
          break;
        } catch (const CheckpointCorrupt& e) {
          // This entry is the newest remaining (later ones were quarantined
          // in earlier iterations), so quarantine-newest hits exactly it.
          err = e.what();
          ring.quarantine_newest();
          ++falls;
        }
      }
    }
  }
  status = comm.bcast(status, 0);
  falls = comm.bcast(falls, 0);
  if (fallbacks != nullptr) *fallbacks = falls;
  if (status == 1) {
    throw std::runtime_error(comm.rank() == 0 ? err : "checkpoint ring empty");
  }
  if (status == 2) {
    throw CheckpointCorrupt(comm.rank() == 0 ? err : "no ring entry passed CRC validation");
  }
  return distribute<Dim>(comm, conn, std::move(img));
}

namespace {

/// Replay one validated delta on top of the in-memory base image: drop every
/// base octant covered by a delta region, then merge the delta's leaves (and
/// their field values) back in by (tree, SFC) order. The writer guarantees a
/// delta's leaves are exactly the current leaves inside its regions, so the
/// merge result is the full leaf sequence at the delta's step.
template <int Dim>
void apply_delta(Image& img, const DeltaImage& d, int num_trees, const std::string& path) {
  using Oct = forest::Octant<Dim>;
  const auto to_oct = [](const forest::OctMsg& m) {
    Oct o;
    o.x = m.x;
    o.y = m.y;
    if constexpr (Dim == 3) o.z = m.z;
    o.level = static_cast<std::int8_t>(m.level);
    return o;
  };
  std::vector<std::vector<Oct>> reg(static_cast<std::size_t>(num_trees));
  for (const forest::OctMsg& m : d.regions) {
    if (m.tree < 0 || m.tree >= num_trees) corrupt(path, "delta region outside the connectivity");
    reg[static_cast<std::size_t>(m.tree)].push_back(to_oct(m));
  }
  for (auto& v : reg) std::sort(v.begin(), v.end());
  const auto covered = [&](const forest::OctMsg& m) {
    if (m.tree < 0 || m.tree >= num_trees) {
      corrupt(path, "base octant names a tree outside the connectivity");
    }
    const auto& v = reg[static_cast<std::size_t>(m.tree)];
    const Oct o = to_oct(m);
    const auto it = std::upper_bound(v.begin(), v.end(), o);
    if (it != v.end() && o.contains(*it) && o.level < it->level) {
      // A base leaf strictly coarser than a recorded region means the
      // writer's change tracking missed a refinement under it.
      corrupt(path, "delta region finer than a base leaf (incomplete tracking)");
    }
    return it != v.begin() && std::prev(it)->contains(o);
  };

  if (img.fields.size() != d.fields.size()) {
    corrupt(path, "delta field set does not match the base snapshot");
  }
  for (std::size_t i = 0; i < d.fields.size(); ++i) {
    if (img.fields[i].name != d.fields[i].name ||
        img.fields[i].per_oct != d.fields[i].per_oct) {
      corrupt(path, "delta field '" + d.fields[i].name + "' does not match the base snapshot");
    }
  }

  std::vector<forest::OctMsg> merged;
  merged.reserve(img.octants.size() + d.octants.size());
  std::vector<std::vector<double>> mdata(img.fields.size());
  const auto less_msg = [&](const forest::OctMsg& a, const forest::OctMsg& b) {
    if (a.tree != b.tree) return a.tree < b.tree;
    return to_oct(a) < to_oct(b);
  };
  const auto take = [&](const std::vector<forest::OctMsg>& oct,
                        const std::vector<NamedField>& flds, std::size_t i) {
    merged.push_back(oct[i]);
    for (std::size_t fi = 0; fi < flds.size(); ++fi) {
      const auto w = static_cast<std::size_t>(flds[fi].per_oct);
      mdata[fi].insert(mdata[fi].end(),
                       flds[fi].data.begin() + static_cast<std::ptrdiff_t>(i * w),
                       flds[fi].data.begin() + static_cast<std::ptrdiff_t>((i + 1) * w));
    }
  };
  std::size_t ib = 0, id = 0;
  while (ib < img.octants.size() || id < d.octants.size()) {
    if (ib < img.octants.size() && covered(img.octants[ib])) {
      ++ib;  // replaced by the delta's view of this region
      continue;
    }
    const bool take_delta = id < d.octants.size() &&
                            (ib >= img.octants.size() ||
                             less_msg(d.octants[id], img.octants[ib]));
    if (take_delta) {
      take(d.octants, d.fields, id);
      ++id;
    } else {
      take(img.octants, img.fields, ib);
      ++ib;
    }
  }
  img.octants = std::move(merged);
  for (std::size_t fi = 0; fi < img.fields.size(); ++fi) {
    img.fields[fi].data = std::move(mdata[fi]);
  }
}

}  // namespace

template <int Dim>
void write_delta_checkpoint_ring(const forest::Forest<Dim>& f, std::uint64_t conn_id,
                                 std::uint64_t step, const std::vector<NamedField>& fields,
                                 forest::DeltaSet<Dim>& delta, CheckpointRing& ring) {
  using Oct = forest::Octant<Dim>;
  par::Comm& comm = f.comm();
  const auto n_local = static_cast<std::size_t>(f.num_local());
  for (const NamedField& fld : fields) {
    if (fld.name.empty() || fld.name == "dmeta" || fld.name == "dregions" ||
        fld.name == "doctants" || fld.name == "ranges" || fld.name == "octants" ||
        fld.name.size() > max_section_name) {
      throw std::runtime_error("write_delta_checkpoint_ring: bad field name '" + fld.name + "'");
    }
    if (fld.per_oct <= 0 || fld.data.size() != n_local * static_cast<std::size_t>(fld.per_oct)) {
      throw std::runtime_error("write_delta_checkpoint_ring: field '" + fld.name +
                               "' size does not match the local forest");
    }
  }

  // Rank 0 looks up the chain anchor (the newest full snapshot) and the
  // predecessor link; the go/no-go decision is collective so every rank
  // takes the same branch.
  std::array<std::uint64_t, 4> link{0, 0, 0, 0};  // has_anchor, base, prev, prev_crc
  if (comm.rank() == 0) {
    const auto paths = ring.entries();
    std::string anchor;
    for (const auto& p : paths) {
      if (!CheckpointRing::is_delta(p)) anchor = p;
    }
    if (!anchor.empty()) {
      std::uint32_t crc = 0;
      if (peek_header_crc(paths.back(), crc)) {
        link = {1, parse_seq(fs::path(anchor)), parse_seq(fs::path(paths.back())), crc};
      }
    }
  }
  link = comm.bcast(link, 0);
  const bool want_full = link[0] == 0 || delta.overflow;
  if (comm.allreduce(static_cast<int>(want_full), par::ReduceOp::logical_or) != 0) {
    write_checkpoint_ring<Dim>(f, conn_id, step, fields, ring);
    return;
  }

  forest::DeltaSet<Dim> global = delta.replicated(comm);
  if (global.regions.size() != static_cast<std::size_t>(f.num_trees())) {
    throw std::runtime_error("write_delta_checkpoint_ring: delta tree count mismatch");
  }

  // Local leaves inside the replicated regions, in local SFC order — the
  // rank concatenation below is therefore the global SFC order — plus the
  // field values on exactly those leaves.
  std::vector<forest::OctMsg> doct;
  std::vector<std::vector<double>> dvals(fields.size());
  std::size_t tree_base = 0;
  for (int t = 0; t < f.num_trees(); ++t) {
    const std::vector<Oct>& leaves = f.tree(t);
    for (const Oct& r : global.regions[static_cast<std::size_t>(t)]) {
      const auto [lo, hi] = forest::overlapping_range<Dim>(leaves, r);
      for (std::size_t i = lo; i < hi; ++i) {
        const Oct& o = leaves[i];
        if (!r.contains(o)) {
          // A leaf coarser than a region it overlaps means change tracking
          // missed a coarsening: the delta cannot represent this step.
          throw std::runtime_error(
              "write_delta_checkpoint_ring: leaf coarser than its delta region");
        }
        doct.push_back(forest::OctMsg{t, o.x, o.y, Dim == 3 ? o.z : 0, o.level});
        const std::size_t li = tree_base + i;
        for (std::size_t fi = 0; fi < fields.size(); ++fi) {
          const auto w = static_cast<std::size_t>(fields[fi].per_oct);
          dvals[fi].insert(dvals[fi].end(),
                           fields[fi].data.begin() + static_cast<std::ptrdiff_t>(li * w),
                           fields[fi].data.begin() + static_cast<std::ptrdiff_t>((li + 1) * w));
        }
      }
    }
    tree_base += leaves.size();
  }

  const auto oct_parts = comm.allgatherv(doct);
  std::vector<std::vector<std::vector<double>>> field_parts;
  field_parts.reserve(fields.size());
  for (const auto& dv : dvals) field_parts.push_back(comm.allgatherv(dv));

  if (comm.rank() == 0) {
    std::vector<forest::OctMsg> octants;
    for (const auto& part : oct_parts) octants.insert(octants.end(), part.begin(), part.end());
    std::vector<forest::OctMsg> regions;
    for (int t = 0; t < f.num_trees(); ++t) {
      for (const Oct& r : global.regions[static_cast<std::size_t>(t)]) {
        regions.push_back(forest::OctMsg{t, r.x, r.y, Dim == 3 ? r.z : 0, r.level});
      }
    }
    const std::uint64_t dmeta[3] = {link[1], link[2], link[3]};

    Header h{};
    std::memcpy(h.magic, magic_bytes, sizeof(magic_bytes));
    h.version = checkpoint_format_version;
    h.dim = Dim;
    h.writer_ranks = static_cast<std::uint32_t>(comm.size());
    h.num_trees = static_cast<std::uint32_t>(f.num_trees());
    h.conn_id = conn_id;
    h.num_octants = octants.size();
    h.step = step;
    h.num_sections = static_cast<std::uint32_t>(3 + fields.size());
    h.header_crc = crc32c(&h, header_crc_span);

    std::vector<std::vector<double>> field_data;
    for (const auto& parts : field_parts) {
      std::vector<double> all;
      for (const auto& part : parts) all.insert(all.end(), part.begin(), part.end());
      field_data.push_back(std::move(all));
    }

    std::vector<SectionDesc> descs;
    std::uint64_t offset = sizeof(Header) + h.num_sections * sizeof(SectionDesc);
    const auto add = [&](const std::string& name, const void* data, std::uint64_t nbytes,
                         std::uint32_t aux) {
      descs.push_back(make_desc(name, offset, data, nbytes, aux));
      offset += nbytes;
    };
    add("dmeta", dmeta, sizeof(dmeta), 0);
    add("dregions", regions.data(), regions.size() * sizeof(forest::OctMsg), 0);
    add("doctants", octants.data(), octants.size() * sizeof(forest::OctMsg), 0);
    for (std::size_t i = 0; i < fields.size(); ++i) {
      add(fields[i].name, field_data[i].data(), field_data[i].size() * sizeof(double),
          static_cast<std::uint32_t>(fields[i].per_oct));
    }

    const std::string path = ring.next_delta_path();
    publish_verified(
        path, step, comm.inject_config(),
        [&](io::CheckedFile& fp) {
          fp.write(&h, sizeof(h));
          fp.write(descs.data(), descs.size() * sizeof(SectionDesc));
          fp.write(dmeta, sizeof(dmeta));
          fp.write(regions.data(), regions.size() * sizeof(forest::OctMsg));
          fp.write(octants.data(), octants.size() * sizeof(forest::OctMsg));
          for (const auto& fd : field_data) fp.write(fd.data(), fd.size() * sizeof(double));
        },
        [&](const std::string& tmp) { load_delta_image(tmp, Dim, conn_id, f.num_trees()); });
    forest::op_stats().ckpt_delta_bytes += static_cast<std::int64_t>(fs::file_size(path));
    ring.prune();
  }
  comm.barrier();  // checkpoint completion is a collective postcondition
}

template <int Dim>
Restored<Dim> restore_latest_chain(par::Comm& comm, const forest::Connectivity<Dim>& conn,
                                   std::uint64_t conn_id, CheckpointRing& ring, int* fallbacks) {
  // Rank 0 finds the newest full snapshot that validates (quarantining
  // corrupt ones), then replays the delta chain above it in sequence order.
  // The chain stops at the first corrupt delta (quarantined) or broken
  // (base, prev, prev-CRC) link — later deltas are orphaned and the state
  // restored is the longest valid prefix.
  Image img;
  std::uint64_t status = 1;  // 0 = ok, 1 = empty ring, 2 = no valid full snapshot
  std::string err;
  int falls = 0;
  if (comm.rank() == 0) {
    for (;;) {
      const auto paths = ring.entries();
      std::string anchor;
      for (const auto& p : paths) {
        if (!CheckpointRing::is_delta(p)) anchor = p;
      }
      if (anchor.empty()) {
        if (paths.empty() && err.empty()) {
          err = "checkpoint ring empty: " + ring.dir();
        } else {
          status = 2;
          if (err.empty()) err = "no full snapshot in ring: " + ring.dir();
        }
        break;
      }
      try {
        img = load_image(anchor, Dim, conn_id, conn.num_trees());
      } catch (const CheckpointCorrupt& e) {
        err = e.what();
        fs::rename(anchor, anchor + ".bad");
        ++falls;
        continue;  // fall back to the next-older full snapshot
      }
      status = 0;
      const std::uint64_t anchor_seq = parse_seq(fs::path(anchor));
      std::uint64_t prev_seq = anchor_seq;
      std::uint32_t prev_crc = img.header_crc;
      for (const auto& p : paths) {
        if (!CheckpointRing::is_delta(p)) continue;
        const std::uint64_t seq = parse_seq(fs::path(p));
        if (seq < anchor_seq) continue;  // leftovers of an older chain
        try {
          const DeltaImage d = load_delta_image(p, Dim, conn_id, conn.num_trees());
          if (d.base_seq != anchor_seq || d.prev_seq != prev_seq || d.prev_crc != prev_crc) {
            break;  // orphaned tail of a different chain: keep the prefix
          }
          apply_delta<Dim>(img, d, conn.num_trees(), p);
          img.step = d.step;
          img.bytes_read += d.bytes_read;
          prev_seq = seq;
          prev_crc = d.header_crc;
        } catch (const CheckpointCorrupt&) {
          fs::rename(p, p + ".bad");
          ++falls;
          break;  // everything after the corrupt link is unreachable
        }
      }
      break;
    }
  }
  status = comm.bcast(status, 0);
  falls = comm.bcast(falls, 0);
  if (fallbacks != nullptr) *fallbacks = falls;
  if (status == 1) {
    throw std::runtime_error(comm.rank() == 0 ? err : "checkpoint ring empty");
  }
  if (status == 2) {
    throw CheckpointCorrupt(comm.rank() == 0 ? err : "no full snapshot passed CRC validation");
  }
  return distribute<Dim>(comm, conn, std::move(img));
}

const char* corrupt_kind_name(CorruptKind k) {
  switch (k) {
    case CorruptKind::byte_flip: return "byte_flip";
    case CorruptKind::truncate_tail: return "truncate_tail";
    case CorruptKind::torn_write: return "torn_write";
  }
  return "?";
}

void corrupt_checkpoint(const std::string& path, CorruptKind kind, std::uint64_t seed) {
  long fsize = 0;
  Header h{};
  {
    io::CheckedFile fp(path, "rb");
    fsize = fp.size();
    fp.read_exact(&h, sizeof(h));
  }
  const long data_start =
      static_cast<long>(sizeof(Header) + h.num_sections * sizeof(SectionDesc));
  if (fsize <= data_start) {
    throw std::runtime_error("corrupt_checkpoint: no data region in " + path);
  }
  const long data_len = fsize - data_start;
  const std::uint64_t hash = par::detail::mix64(seed ^ 0xc0440001ULL);

  switch (kind) {
    case CorruptKind::byte_flip: {
      const long off = data_start + static_cast<long>(hash % static_cast<std::uint64_t>(data_len));
      const auto bit = static_cast<unsigned char>(1u << ((hash >> 37) % 8));
      io::CheckedFile fp(path, "r+b");
      unsigned char byte = 0;
      fp.seek(off);
      fp.read_exact(&byte, 1);
      byte = static_cast<unsigned char>(byte ^ bit);
      fp.seek(off);
      fp.write(&byte, 1);
      fp.close();
      break;
    }
    case CorruptKind::truncate_tail: {
      // Cut into the data region so some section must extend past EOF.
      const long drop = 1 + static_cast<long>(hash % static_cast<std::uint64_t>(data_len));
      fs::resize_file(path, static_cast<std::uint64_t>(fsize - drop));
      break;
    }
    case CorruptKind::torn_write: {
      // XOR a hashed-length tail run with a nonzero mask: same file size,
      // garbled final section — the torn-rewrite signature.
      const long len =
          1 + static_cast<long>(hash % static_cast<std::uint64_t>(std::min<long>(data_len, 64)));
      const auto mask = static_cast<unsigned char>((hash >> 29) | 1u);
      std::vector<unsigned char> tail(static_cast<std::size_t>(len));
      io::CheckedFile fp(path, "r+b");
      fp.seek(fsize - len);
      fp.read_exact(tail.data(), tail.size());
      for (unsigned char& b : tail) b = static_cast<unsigned char>(b ^ mask);
      fp.seek(fsize - len);
      fp.write(tail.data(), tail.size());
      fp.close();
      break;
    }
  }
}

void corrupt_checkpoint_byte(const std::string& path, std::uint64_t seed) {
  corrupt_checkpoint(path, CorruptKind::byte_flip, seed);
}

DiskFaultStats disk_fault_stats() {
  DiskFaultStats s;
  s.commits = g_commits.load();
  s.write_retries = g_write_retries.load();
  s.eio_injected = g_eio.load();
  s.torn_injected = g_torn.load();
  s.trunc_injected = g_trunc.load();
  s.verify_failures = g_verify_failures.load();
  return s;
}

void reset_disk_fault_stats() {
  g_commits = 0;
  g_write_retries = 0;
  g_eio = 0;
  g_torn = 0;
  g_trunc = 0;
  g_verify_failures = 0;
}

template std::uint64_t connectivity_id<2>(const forest::Connectivity<2>&);
template std::uint64_t connectivity_id<3>(const forest::Connectivity<3>&);
template void write_checkpoint<2>(const forest::Forest<2>&, std::uint64_t, std::uint64_t,
                                  const std::vector<NamedField>&, const std::string&);
template void write_checkpoint<3>(const forest::Forest<3>&, std::uint64_t, std::uint64_t,
                                  const std::vector<NamedField>&, const std::string&);
template Restored<2> restore_checkpoint<2>(par::Comm&, const forest::Connectivity<2>&,
                                           std::uint64_t, const std::string&);
template Restored<3> restore_checkpoint<3>(par::Comm&, const forest::Connectivity<3>&,
                                           std::uint64_t, const std::string&);
template void write_checkpoint_ring<2>(const forest::Forest<2>&, std::uint64_t, std::uint64_t,
                                       const std::vector<NamedField>&, CheckpointRing&);
template void write_checkpoint_ring<3>(const forest::Forest<3>&, std::uint64_t, std::uint64_t,
                                       const std::vector<NamedField>&, CheckpointRing&);
template Restored<2> restore_latest<2>(par::Comm&, const forest::Connectivity<2>&, std::uint64_t,
                                       CheckpointRing&, int*);
template Restored<3> restore_latest<3>(par::Comm&, const forest::Connectivity<3>&, std::uint64_t,
                                       CheckpointRing&, int*);
template void write_delta_checkpoint_ring<2>(const forest::Forest<2>&, std::uint64_t,
                                             std::uint64_t, const std::vector<NamedField>&,
                                             forest::DeltaSet<2>&, CheckpointRing&);
template void write_delta_checkpoint_ring<3>(const forest::Forest<3>&, std::uint64_t,
                                             std::uint64_t, const std::vector<NamedField>&,
                                             forest::DeltaSet<3>&, CheckpointRing&);
template Restored<2> restore_latest_chain<2>(par::Comm&, const forest::Connectivity<2>&,
                                             std::uint64_t, CheckpointRing&, int*);
template Restored<3> restore_latest_chain<3>(par::Comm&, const forest::Connectivity<3>&,
                                             std::uint64_t, CheckpointRing&, int*);

}  // namespace esamr::resil
