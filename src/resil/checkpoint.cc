#include "resil/checkpoint.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "forest/stats.h"
#include "io/checked_file.h"
#include "par/crc32c.h"
#include "par/inject.h"

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

/// The two ring entry kinds share the container above and end with one
/// section per named field; only their lead sections differ.
enum class Kind { full, delta };

/// Lead sections of each kind in file order. The last one holds the entry's
/// octants.
const std::vector<std::string>& lead_sections(Kind kind) {
  static const std::vector<std::string> full{"ranges", "octants"};
  static const std::vector<std::string> delta{"dmeta", "dregions", "doctants"};
  return kind == Kind::full ? full : delta;
}

/// A delta's place in its chain (the "dmeta" section): the seq of the full
/// snapshot it builds on, the seq of its immediate predecessor, and that
/// predecessor's header CRC.
struct Link {
  std::uint64_t base_seq = 0;
  std::uint64_t prev_seq = 0;
  std::uint64_t prev_crc = 0;
};
static_assert(sizeof(Link) == 24 && std::is_trivially_copyable_v<Link>);

/// A fully validated in-memory ring entry (rank 0 only). A full snapshot's
/// `octants` are the global SFC sequence; a delta's are the leaves inside
/// `regions` at write time. `fields` hold the values on exactly `octants`.
struct Entry {
  std::uint64_t step = 0;
  std::int64_t bytes_read = 0;
  std::uint32_t header_crc = 0;         ///< this file's header CRC (chain link)
  Link link;                            ///< delta only
  std::vector<forest::OctMsg> regions;  ///< delta only
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

/// XOR `len` bytes of `path` starting at `off` with a nonzero `mask`, in
/// place: the bit flip and torn-rewrite damage of injected disk faults and
/// corrupt_checkpoint.
void xor_bytes(const std::string& path, long off, long len, unsigned char mask) {
  std::vector<unsigned char> bytes(static_cast<std::size_t>(len));
  io::CheckedFile fp(path, "r+b");
  fp.seek(off);
  fp.read_exact(bytes.data(), bytes.size());
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(b ^ mask);
  fp.seek(off);
  fp.write(bytes.data(), bytes.size());
  fp.close();
}

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
  xor_bytes(tmp, static_cast<long>(fsize - len), static_cast<long>(len),
            static_cast<unsigned char>((h >> 29) | 1u));
}

/// The header of an open entry, after checking its magic and header CRC.
Header read_header(io::CheckedFile& fp, const std::string& path) {
  if (fp.size() < static_cast<long>(sizeof(Header))) corrupt(path, "file shorter than header");
  Header h{};
  fp.read_exact(&h, sizeof(h));
  if (std::memcmp(h.magic, magic_bytes, sizeof(magic_bytes)) != 0) corrupt(path, "bad magic");
  if (par::crc32c(&h, header_crc_span) != h.header_crc) corrupt(path, "header CRC mismatch");
  return h;
}

/// A CRC-validated section payload as `count` records of T; any other size
/// means the section table and the header disagree.
template <typename T>
std::vector<T> records(const std::vector<std::byte>& buf, std::uint64_t count,
                       const std::string& path, const std::string& name) {
  if (buf.size() != count * sizeof(T)) {
    corrupt(path, "'" + name + "' section size does not match its record count");
  }
  std::vector<T> out(count);
  if (count > 0) std::memcpy(out.data(), buf.data(), buf.size());
  return out;
}

/// Read and CRC-validate a ring entry of `kind` on the calling rank (no
/// communication). Restore and the writer's reread verification both come
/// through here. Throws CheckpointCorrupt when a byte fails validation and
/// std::runtime_error when the entry belongs to another format version or
/// forest (dim, trees, connectivity).
Entry read_entry(const std::string& path, Kind kind, int dim, std::uint64_t conn_id,
                 int num_trees) {
  io::CheckedFile fp(path, "rb");
  const long fsize = fp.size();
  const Header h = read_header(fp, path);
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
  const std::vector<std::string>& lead = lead_sections(kind);
  if (descs.size() < lead.size()) corrupt(path, "missing '" + lead[descs.size()] + "' section");

  Entry e;
  e.step = h.step;
  e.bytes_read = fsize;
  e.header_crc = h.header_crc;
  std::vector<std::byte> buf;
  for (std::size_t i = 0; i < descs.size(); ++i) {
    const SectionDesc& d = descs[i];
    const std::string name(d.name, strnlen(d.name, sizeof(d.name)));
    if (d.offset < data_start || d.offset + d.nbytes > static_cast<std::uint64_t>(fsize)) {
      corrupt(path, "section '" + name + "' extends past end of file");
    }
    buf.resize(d.nbytes);
    fp.seek(static_cast<long>(d.offset));
    fp.read_exact(buf.data(), buf.size());
    const std::uint32_t got = par::crc32c(buf.data(), buf.size());
    if (got != d.crc) {
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "CRC mismatch in section '%s' at offset %llu (stored 0x%08x, computed 0x%08x)",
                    name.c_str(), static_cast<unsigned long long>(d.offset), d.crc, got);
      corrupt(path, msg);
    }
    if (i >= lead.size()) {
      if (d.aux == 0) corrupt(path, "field section '" + name + "' has no per-octant width");
      e.fields.push_back(NamedField{name, static_cast<int>(d.aux),
                                    records<double>(buf, h.num_octants * d.aux, path, name)});
    } else if (name != lead[i]) {
      corrupt(path, "missing '" + lead[i] + "' section");
    } else if (name == "ranges") {
      std::uint64_t total = 0;
      for (const std::uint64_t c : records<std::uint64_t>(buf, h.writer_ranks, path, name)) {
        total += c;
      }
      if (total != h.num_octants) corrupt(path, "'ranges' does not sum to the octant count");
    } else if (name == "dmeta") {
      e.link = records<Link>(buf, 1, path, name)[0];
    } else if (name == "dregions") {
      e.regions = records<forest::OctMsg>(buf, buf.size() / sizeof(forest::OctMsg), path, name);
    } else {  // the entry's octants: "octants" or "doctants"
      e.octants = records<forest::OctMsg>(buf, h.num_octants, path, name);
    }
  }
  return e;
}

/// The header CRC of an existing ring entry (the chain link the next delta
/// must carry). False when the file cannot be read or its header is bad.
bool peek_header_crc(const std::string& path, std::uint32_t& out) {
  try {
    io::CheckedFile fp(path, "rb");
    out = read_header(fp, path).header_crc;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// Rank-0 atomic publish with write-then-reread-verify: assemble under a
/// temp name via `write_body`, reread the temp through `verify` (which must
/// throw on bad bytes — the same CRC validation restore uses), and only then
/// rename over the target. Injected disk faults (torn tail, truncation,
/// transient EIO) are keyed on (seed, step, attempt), so each retry draws a
/// fresh hash and the bounded loop converges; persistent failure throws
/// CheckpointCorrupt.
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

/// Throws unless every field can be stored: a nonempty name that fits the
/// section table and is no lead-section name of either kind (a snapshot's
/// fields ride its delta chain), holding per_oct values per local leaf.
void check_fields(const std::vector<NamedField>& fields, std::size_t n_local) {
  for (const NamedField& fld : fields) {
    const auto reserved = [&fld](Kind k) {
      return std::ranges::count(lead_sections(k), fld.name) > 0;
    };
    if (fld.name.empty() || fld.name.size() > max_section_name || reserved(Kind::full) ||
        reserved(Kind::delta)) {
      throw std::runtime_error("checkpoint: bad field name '" + fld.name + "'");
    }
    if (fld.per_oct <= 0 || fld.data.size() != n_local * static_cast<std::size_t>(fld.per_oct)) {
      throw std::runtime_error("checkpoint: field '" + fld.name +
                               "' size does not match the local forest");
    }
  }
}

/// A section the writer lays out: its name, payload and aux word.
struct Section {
  std::string name;
  const void* data = nullptr;
  std::uint64_t nbytes = 0;
  std::uint32_t aux = 0;
};

/// Collective: commit one ring entry of `kind` to `path` (rank 0 writes;
/// `path` is ignored elsewhere). Each rank passes `octants`, its selected
/// local leaves in local SFC order (so the rank concatenation is global SFC
/// order), and `values`, the fields on exactly those leaves. Rank 0 lays out
/// `lead` (the kind's lead sections before the octants), the gathered
/// octants and one section per field, and publishes the file once its reread
/// passes read_entry.
template <int Dim>
void write_entry(const forest::Forest<Dim>& f, std::uint64_t conn_id, std::uint64_t step,
                 Kind kind, const std::vector<Section>& lead,
                 const std::vector<forest::OctMsg>& octants,
                 const std::vector<NamedField>& values, const std::string& path) {
  par::Comm& comm = f.comm();
  // The field vectors are rank-owned while the entry is gathered: every
  // byte must travel through the allgatherv, never via direct peer reads.
  std::vector<par::check::RegionGuard> field_guards;
  if (par::check::enabled(comm)) {
    field_guards.reserve(values.size());
    for (const NamedField& fld : values) {
      field_guards.emplace_back(comm, fld.data.data(), fld.data.size() * sizeof(double),
                                "checkpoint field");
    }
  }
  const auto oct_parts = comm.allgatherv(octants);
  std::vector<std::vector<std::vector<double>>> field_parts;
  field_parts.reserve(values.size());
  for (const NamedField& fld : values) field_parts.push_back(comm.allgatherv(fld.data));

  if (comm.rank() == 0) {
    std::vector<forest::OctMsg> all_octants;
    for (const auto& part : oct_parts) {
      all_octants.insert(all_octants.end(), part.begin(), part.end());
    }
    std::vector<std::vector<double>> field_data(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      for (const auto& part : field_parts[i]) {
        field_data[i].insert(field_data[i].end(), part.begin(), part.end());
      }
    }

    std::vector<Section> sections = lead;
    sections.push_back({lead_sections(kind).back(), all_octants.data(),
                        all_octants.size() * sizeof(forest::OctMsg), 0});
    for (std::size_t i = 0; i < values.size(); ++i) {
      sections.push_back({values[i].name, field_data[i].data(),
                          field_data[i].size() * sizeof(double),
                          static_cast<std::uint32_t>(values[i].per_oct)});
    }

    Header h{};
    std::memcpy(h.magic, magic_bytes, sizeof(magic_bytes));
    h.version = checkpoint_format_version;
    h.dim = Dim;
    h.writer_ranks = static_cast<std::uint32_t>(comm.size());
    h.num_trees = static_cast<std::uint32_t>(f.num_trees());
    h.conn_id = conn_id;
    h.num_octants = all_octants.size();
    h.step = step;
    h.num_sections = static_cast<std::uint32_t>(sections.size());
    h.header_crc = par::crc32c(&h, header_crc_span);

    std::vector<SectionDesc> descs;
    std::uint64_t offset = sizeof(Header) + sections.size() * sizeof(SectionDesc);
    for (const Section& s : sections) {
      SectionDesc d{};
      std::snprintf(d.name, sizeof(d.name), "%s", s.name.c_str());
      d.offset = offset;
      d.nbytes = s.nbytes;
      d.crc = par::crc32c(s.data, s.nbytes);
      d.aux = s.aux;
      descs.push_back(d);
      offset += s.nbytes;
    }

    publish_verified(
        path, step, comm.inject_config(),
        [&](io::CheckedFile& fp) {
          fp.write(&h, sizeof(h));
          fp.write(descs.data(), descs.size() * sizeof(SectionDesc));
          for (const Section& s : sections) fp.write(s.data, s.nbytes);
        },
        [&](const std::string& tmp) { read_entry(tmp, kind, Dim, conn_id, f.num_trees()); });
  }
  comm.barrier();  // checkpoint completion is a collective postcondition
}

/// Pack restore metadata (step, bytes, field names/widths) for the bcast
/// that tells non-root ranks what the snapshot contains.
std::vector<std::byte> pack_meta(const Entry& img) {
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
Restored<Dim> distribute(par::Comm& comm, const forest::Connectivity<Dim>& conn, Entry&& img) {
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
      trees[static_cast<std::size_t>(om.tree)].push_back(om.octant<Dim>());
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

/// Replay one validated delta on top of the in-memory base image: drop every
/// base octant covered by a delta region, then merge the delta's leaves (and
/// their field values) back in by (tree, SFC) order. The writer guarantees a
/// delta's leaves are exactly the current leaves inside its regions, so the
/// merge result is the full leaf sequence at the delta's step.
template <int Dim>
void apply_delta(Entry& img, const Entry& d, int num_trees, const std::string& path) {
  using Oct = forest::Octant<Dim>;
  std::vector<std::vector<Oct>> reg(static_cast<std::size_t>(num_trees));
  for (const forest::OctMsg& m : d.regions) {
    if (m.tree < 0 || m.tree >= num_trees) corrupt(path, "delta region outside the connectivity");
    reg[static_cast<std::size_t>(m.tree)].push_back(m.octant<Dim>());
  }
  for (auto& v : reg) std::sort(v.begin(), v.end());
  const auto covered = [&](const forest::OctMsg& m) {
    if (m.tree < 0 || m.tree >= num_trees) {
      corrupt(path, "base octant names a tree outside the connectivity");
    }
    const auto& v = reg[static_cast<std::size_t>(m.tree)];
    const Oct o = m.octant<Dim>();
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
  const auto less_msg = [](const forest::OctMsg& a, const forest::OctMsg& b) {
    if (a.tree != b.tree) return a.tree < b.tree;
    return a.octant<Dim>() < b.octant<Dim>();
  };
  const auto take = [&](const Entry& src, std::size_t i) {
    merged.push_back(src.octants[i]);
    for (std::size_t fi = 0; fi < src.fields.size(); ++fi) {
      const auto w = static_cast<std::size_t>(src.fields[fi].per_oct);
      const auto first = src.fields[fi].data.begin() + static_cast<std::ptrdiff_t>(i * w);
      mdata[fi].insert(mdata[fi].end(), first, first + static_cast<std::ptrdiff_t>(w));
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
      take(d, id++);
    } else {
      take(img, ib++);
    }
  }
  img.octants = std::move(merged);
  for (std::size_t fi = 0; fi < img.fields.size(); ++fi) {
    img.fields[fi].data = std::move(mdata[fi]);
  }
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
  check_fields(fields, static_cast<std::size_t>(f.num_local()));
  std::vector<forest::OctMsg> octants;
  octants.reserve(static_cast<std::size_t>(f.num_local()));
  f.for_each_local([&octants](int t, const forest::Octant<Dim>& o) {
    octants.push_back(forest::OctMsg::of(t, o));
  });
  std::vector<std::uint64_t> counts;
  for (const std::int64_t c : f.global_counts()) counts.push_back(static_cast<std::uint64_t>(c));
  write_entry(f, conn_id, step, Kind::full,
              {{"ranges", counts.data(), counts.size() * sizeof(std::uint64_t), 0}}, octants,
              fields, path);
}

template <int Dim>
Restored<Dim> restore_checkpoint(par::Comm& comm, const forest::Connectivity<Dim>& conn,
                                 std::uint64_t conn_id, const std::string& path) {
  Entry img;
  if (comm.rank() == 0) img = read_entry(path, Kind::full, Dim, conn_id, conn.num_trees());
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

std::string CheckpointRing::next_path(bool delta) const {
  const auto all = entries();
  const std::uint64_t seq = all.empty() ? 0 : parse_seq(fs::path(all.back())) + 1;
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%08llu.%s", static_cast<unsigned long long>(seq),
                delta ? "edelta" : "esnap");
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
  const std::string path = comm.rank() == 0 ? ring.next_path(false) : std::string();
  write_checkpoint(f, conn_id, step, fields, path);
  if (comm.rank() == 0) ring.prune();
}

bool ring_probe(par::Comm& comm, const CheckpointRing& ring) {
  int has = 0;
  if (comm.rank() == 0) has = ring.entries().empty() ? 0 : 1;
  return comm.bcast(has, 0) != 0;
}

template <int Dim>
void write_delta_checkpoint_ring(const forest::Forest<Dim>& f, std::uint64_t conn_id,
                                 std::uint64_t step, const std::vector<NamedField>& fields,
                                 forest::DeltaSet<Dim>& delta, CheckpointRing& ring) {
  using Oct = forest::Octant<Dim>;
  par::Comm& comm = f.comm();
  check_fields(fields, static_cast<std::size_t>(f.num_local()));

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

  // The replicated regions, the local leaves inside them in local SFC order,
  // and the field values on exactly those leaves.
  std::vector<forest::OctMsg> regions, octants;
  std::vector<NamedField> values;
  for (const NamedField& fld : fields) values.push_back({fld.name, fld.per_oct, {}});
  std::size_t tree_base = 0;
  for (int t = 0; t < f.num_trees(); ++t) {
    const std::vector<Oct>& leaves = f.tree(t);
    for (const Oct& r : global.regions[static_cast<std::size_t>(t)]) {
      regions.push_back(forest::OctMsg::of(t, r));
      const auto [lo, hi] = forest::overlapping_range<Dim>(leaves, r);
      for (std::size_t i = lo; i < hi; ++i) {
        if (!r.contains(leaves[i])) {
          // A leaf coarser than a region it overlaps means change tracking
          // missed a coarsening: the delta cannot represent this step.
          throw std::runtime_error(
              "write_delta_checkpoint_ring: leaf coarser than its delta region");
        }
        octants.push_back(forest::OctMsg::of(t, leaves[i]));
        const std::size_t li = tree_base + i;
        for (std::size_t fi = 0; fi < fields.size(); ++fi) {
          const auto w = static_cast<std::size_t>(fields[fi].per_oct);
          const auto first = fields[fi].data.begin() + static_cast<std::ptrdiff_t>(li * w);
          values[fi].data.insert(values[fi].data.end(), first,
                                 first + static_cast<std::ptrdiff_t>(w));
        }
      }
    }
    tree_base += leaves.size();
  }

  const Link chain{link[1], link[2], link[3]};
  const std::string path = comm.rank() == 0 ? ring.next_path(true) : std::string();
  write_entry(f, conn_id, step, Kind::delta,
              {{"dmeta", &chain, sizeof(chain), 0},
               {"dregions", regions.data(), regions.size() * sizeof(forest::OctMsg), 0}},
              octants, values, path);
  if (comm.rank() == 0) {
    forest::op_stats().ckpt_delta_bytes += static_cast<std::int64_t>(fs::file_size(path));
    ring.prune();
  }
}

template <int Dim>
Restored<Dim> restore_latest_chain(par::Comm& comm, const forest::Connectivity<Dim>& conn,
                                   std::uint64_t conn_id, CheckpointRing& ring, int* fallbacks) {
  // Rank 0 finds the newest full snapshot that validates (quarantining
  // corrupt ones), then replays the delta chain above it in sequence order.
  // The chain stops at the first corrupt delta (quarantined) or broken
  // (base, prev, prev-CRC) link — later deltas are orphaned and the state
  // restored is the longest valid prefix.
  Entry img;
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
        img = read_entry(anchor, Kind::full, Dim, conn_id, conn.num_trees());
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
          const Entry d = read_entry(p, Kind::delta, Dim, conn_id, conn.num_trees());
          if (d.link.base_seq != anchor_seq || d.link.prev_seq != prev_seq ||
              d.link.prev_crc != prev_crc) {
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
      xor_bytes(path, off, 1, static_cast<unsigned char>(1u << ((hash >> 37) % 8)));
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
      xor_bytes(path, fsize - len, len, static_cast<unsigned char>((hash >> 29) | 1u));
      break;
    }
  }
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
