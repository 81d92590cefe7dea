// "Nodes" (paper §II-C): build the globally unique numbering of independent
// node points and the lnodes rows of the elements (nodes.h).
//
// One engine (number_stale) serves the full and the incremental build; a
// full build is the incremental case with nothing cached and every local
// element stale. For the stale elements it
//
//  1. classifies every corner against the local + ghost leaf directory: the
//     tree-interior ones from the adjacency the corner iterator
//     (forest/iterate.h, inlined into this pass) hands over, one visit per
//     point, and only the tree-boundary ones by looking up their leaves in
//     every tree frame. Each point becomes one table entry, its key inserted
//     without key comparisons when tree-interior (the walk reports it once),
//     and each corner slot holds its point's entry. An entry keeps the
//     point's owner, or for a hanging point the owner of its constraining
//     leaf (node_classify.h). After the walk, a hanging corner c sets its
//     bit in the element's code and takes the entry of its parent's corner
//     c instead — one of its masters, and the constraining leaf's owner is
//     the rank to ask for it,
//  2. merges the fresh owned independent keys with the caller's surviving
//     ones and assigns contiguous per-rank ids (one allgather),
//  3. resolves every distinct entry a row holds onto its gid in one hop,
//     since 2:1 balance keeps every master independent. A missing gid is
//     asked of one rank per round — of the constraining leaf's owner while
//     the node is unclassified here, else of the node's owner — and each
//     answer is the gid or the owner to re-ask. One request round settles
//     most keys, a second the re-asked ones (OpStats::nodes_rounds); the
//     allreduce-terminated loop throws on a third round or a hanging
//     master. Each stale row then swaps its entries for their gids.
//
// build_incremental adds the patch-only work around the engine: aligning the
// new elements against the cached leaves to find the stale ones, selecting
// the owned keys that survive, and the monotone old -> new gid remap of the
// reused rows.
#include "forest/nodes.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <stdexcept>

#include "forest/iterate.h"
#include "forest/node_classify.h"
#include "forest/stats.h"

namespace esamr::forest {

using detail::NodeClassifier;
using detail::PointRecord;

namespace {

constexpr const char* kMasterHangs =
    "nodes: a hanging node's master hangs too; the forest is not 2:1 balanced";

/// Answer to a request for a node key (tree, x, y, z): the node's gid when
/// the answerer knows it, else ~rank (< 0) of its owner, to re-ask.
struct Answer {
  std::array<std::int32_t, 4> key;
  std::int64_t gid;
};

/// Node keys are lattice points whose low coordinate bits are mostly zero, so
/// every field is spread by its own odd multiplier and the sum is finalized
/// (MurmurHash3 fmix64) before the table masks off the low bits.
struct KeyHash {
  std::size_t operator()(const std::array<std::int32_t, 4>& k) const {
    std::uint64_t h = static_cast<std::uint32_t>(k[0]) * 0x9e3779b97f4a7c15ull;
    h ^= static_cast<std::uint32_t>(k[1]) * 0xc2b2ae3d27d4eb4full;
    h ^= static_cast<std::uint32_t>(k[2]) * 0x165667b19e3779f9ull;
    h ^= static_cast<std::uint32_t>(k[3]) * 0xd6e8feb86659fd93ull;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }
};

/// Open-addressed hash table holding the classification and the gid of a
/// node key. Entries live in a flat vector (indices stay valid across
/// growth), and element corner slots hold their entry index from pass 1 so
/// the resolution scan and the final row fill do no hashing at all. Each
/// probe slot keeps the high half of its key's hash beside the entry index,
/// so a probe reads an entry only when that tag matches.
template <int Dim>
struct NodeTable {
  using Key = typename NodeNumbering<Dim>::Key;
  using Rec = PointRecord<Dim>;
  static constexpr std::int32_t kUnclassified = -1;
  static constexpr std::int32_t kDependent = -2;

  struct Entry {
    Key key;
    std::int32_t owner = kUnclassified;  // rank if independent, else kDependent
    // The owner of the constraining leaf: of a hanging point, or, while a
    // master is unclassified here, of the first hanging corner taking it.
    std::int32_t ask = -1;
    std::int64_t gid = -1;  // -1 = unresolved
  };
  struct Slot {
    std::int32_t entry = -1;  // -1 = empty
    std::uint32_t tag = 0;    // high half of the key's hash
  };

  std::vector<Slot> slot;  // power-of-two probe table
  std::vector<Entry> entries;
  std::size_t mask = 0;

  bool classified(std::int32_t ei) const {
    return entries[static_cast<std::size_t>(ei)].owner != kUnclassified;
  }
  void classify_as(std::int32_t ei, const Rec& r) {
    Entry& e = entries[static_cast<std::size_t>(ei)];
    e.owner = r.hanging() ? kDependent : r.owner;
    if (r.hanging()) e.ask = r.leaf_owner;
  }

  explicit NodeTable(std::size_t expect) {
    std::size_t cap = 64;
    while (cap < expect * 2) cap <<= 1;
    slot.assign(cap, Slot{});
    mask = cap - 1;
    entries.reserve(expect);
  }

  /// Entry index of `k`, inserting an unclassified, unresolved entry if new.
  std::int32_t get_or_insert(const Key& k) {
    const std::uint64_t h = KeyHash{}(k);
    const auto tag = static_cast<std::uint32_t>(h >> 32);
    std::size_t i = h & mask;
    for (; slot[i].entry >= 0; i = (i + 1) & mask) {
      if (slot[i].tag == tag && entries[static_cast<std::size_t>(slot[i].entry)].key == k) {
        return slot[i].entry;
      }
    }
    return place(k, h, i);
  }

  /// Insert a key the table does not hold yet, comparing no keys.
  std::int32_t insert_new(const Key& k) {
    const std::uint64_t h = KeyHash{}(k);
    return place(k, h, free_slot(h));
  }

 private:
  std::size_t free_slot(std::uint64_t h) const {
    std::size_t i = h & mask;
    while (slot[i].entry >= 0) i = (i + 1) & mask;
    return i;
  }

  /// Append entry k into free probe slot i (found for hash h), growing the
  /// table first when it would pass a load of 2/3.
  std::int32_t place(const Key& k, std::uint64_t h, std::size_t i) {
    if ((entries.size() + 1) * 3 > slot.size() * 2) {
      slot.assign(slot.size() * 2, Slot{});
      mask = slot.size() - 1;
      for (std::size_t e = 0; e < entries.size(); ++e) {
        const std::uint64_t he = KeyHash{}(entries[e].key);
        slot[free_slot(he)] = Slot{static_cast<std::int32_t>(e), static_cast<std::uint32_t>(he >> 32)};
      }
      i = free_slot(h);
    }
    const auto idx = static_cast<std::int32_t>(entries.size());
    slot[i] = Slot{idx, static_cast<std::uint32_t>(h >> 32)};
    entries.push_back(Entry{k});
    return idx;
  }
};

/// Sort the (gid, key) records of a numbering by gid and deduplicate them.
/// The first owned_keys.size() records are the owned ones, already in gid
/// order, so only the rest is sorted before one merge.
template <int Dim>
void sort_gid_keys(NodeNumbering<Dim>& out) {
  auto& v = out.gid_keys;
  const auto by_gid = [](const auto& a, const auto& b) { return a.first < b.first; };
  const auto tail = v.begin() + static_cast<std::ptrdiff_t>(out.owned_keys.size());
  std::sort(tail, v.end(), by_gid);
  std::inplace_merge(v.begin(), tail, v.end(), by_gid);
  v.erase(std::unique(v.begin(), v.end(),
                      [](const auto& a, const auto& b) { return a.first == b.first; }),
          v.end());
}

}  // namespace

/// The Nodes engine (collective; see the file header). Numbers the owned set
/// `survivors` ∪ {owned corners of the stale elements} (`survivors` sorted;
/// `stale` flags every local element) and fills the rows and codes of the
/// stale elements; the other rows are left for the caller. out.gid_keys
/// holds the referenced (gid, key) records unsorted, so the caller can add
/// its own before sort_gid_keys.
template <int Dim>
static NodeNumbering<Dim> number_stale(
    const Forest<Dim>& forest, const GhostLayer<Dim>& ghost,
    const std::vector<std::uint8_t>& stale,
    const std::vector<typename NodeNumbering<Dim>::Key>& survivors) {
  using Key = typename NodeNumbering<Dim>::Key;
  using Table = NodeTable<Dim>;
  using Entry = typename Table::Entry;
  constexpr int nc = Topo<Dim>::num_corners;
  par::Comm& comm = forest.comm();
  const int p = comm.size();
  const int me = comm.rank();
  OpStats& ops = op_stats();
  const auto n_stale = static_cast<std::size_t>(std::count(stale.begin(), stale.end(), 1));
  Table tab(n_stale * 2 + 16);
  NodeNumbering<Dim> out;
  // A stale corner slot holds its table entry until resolution, then its gid.
  out.element_nodes.assign(stale.size() * nc, -1);
  out.element_code.assign(stale.size(), 0);

  // --- Pass 1: classify the corners of the stale elements --------------------
  // Lazy: a rank with nothing stale builds the leaf directory only if the
  // resolution phase routes a request its way.
  std::optional<NodeClassifier<Dim>> nclass_opt;
  const auto nclass = [&]() -> const NodeClassifier<Dim>& {
    if (!nclass_opt) nclass_opt.emplace(forest, ghost);
    return *nclass_opt;
  };
  if (n_stale > 0) {
    const NodeClassifier<Dim>& cl = nclass();
    // Tree-interior corners: the iterator visits each point once with the
    // leaves around it, and the point's entry goes straight into the slots of
    // the stale elements it is a corner of.
    std::vector<std::uint8_t> marked;
    for (int t = 0; t < forest.num_trees(); ++t) {
      const auto& d = cl.dir[static_cast<std::size_t>(t)];
      marked.assign(d.size(), 0);
      bool any = false;
      for (std::size_t i = 0; i < d.size(); ++i) {
        marked[i] = d[i].owner == me && stale[static_cast<std::size_t>(d[i].index)] != 0;
        any = any || marked[i];
      }
      if (!any) continue;
      iterate_corners<Dim>(d, marked, [&](const CornerAdjacency<Dim>& adj) {
        bool stale_corner = false;
        bool missing = false;
        for (int i = 0; i < nc; ++i) {
          const std::int32_t di = adj.leaf[static_cast<std::size_t>(i)];
          if (di < 0) {
            missing = true;
          } else if (marked[static_cast<std::size_t>(di)] && adj.corner[static_cast<std::size_t>(i)] >= 0) {
            stale_corner = true;
          }
        }
        if (!stale_corner) return;  // touches stale elements, hangs on all of them
        if (missing) throw std::runtime_error("nodes: touching leaf not in local+ghost storage");
        // New by construction: the table starts empty, the walk reports each
        // tree-interior point once, and no tree-boundary key lies inside a tree.
        const std::int32_t ei = tab.insert_new(Key{t, adj.pt[0], adj.pt[1], adj.pt[2]});
        tab.classify_as(ei, cl.classify_adjacency(t, adj));
        for (int i = 0; i < nc; ++i) {
          const std::int32_t di = adj.leaf[static_cast<std::size_t>(i)];
          const int c = adj.corner[static_cast<std::size_t>(i)];
          if (c >= 0 && marked[static_cast<std::size_t>(di)]) {
            out.element_nodes[static_cast<std::size_t>(d[static_cast<std::size_t>(di)].index) * nc +
                              static_cast<std::size_t>(c)] = ei;
          }
        }
      });
    }
    // Tree-boundary corners: one canonical key over all tree frames,
    // classified once by looking up the touching leaves in each frame.
    const auto touches_tree_boundary = [](const Octant<Dim>& o) {
      for (int f = 0; f < Topo<Dim>::num_faces; ++f) {
        if (o.touches_root_face(f)) return true;
      }
      return false;
    };
    std::size_t li = 0;
    for (int t = 0; t < forest.num_trees(); ++t) {
      for (const Octant<Dim>& o : forest.tree(t)) {
        if (stale[li] != 0 && touches_tree_boundary(o)) {
          for (int c = 0; c < nc; ++c) {
            const auto cp = o.corner_point(c);
            if (NodeClassifier<Dim>::tree_interior(cp)) continue;
            const std::int32_t ei = tab.get_or_insert(cl.canonical(t, cp));
            if (!tab.classified(ei)) tab.classify_as(ei, cl.classify(t, cp));
            out.element_nodes[li * nc + static_cast<std::size_t>(c)] = ei;
          }
        }
        ++li;
      }
    }
    // Hanging corners: corner c takes the entry of the parent's corner c,
    // asked of the constraining leaf's owner while unclassified here. These
    // keys go in after the walk, whose inserts assume a table without them.
    // A master that hangs breaks the 2:1 precondition (see `locate`).
    li = 0;
    for (int t = 0; t < forest.num_trees(); ++t) {
      for (const Octant<Dim>& o : forest.tree(t)) {
        if (stale[li] != 0) {
          auto code = static_cast<std::uint16_t>(o.child_id() << 8);
          for (int c = 0; c < nc; ++c) {
            std::int64_t& slot = out.element_nodes[li * nc + static_cast<std::size_t>(c)];
            if (slot < 0) throw std::logic_error("nodes: stale element corner left unclassified");
            const Entry& e = tab.entries[static_cast<std::size_t>(slot)];
            if (e.owner != Table::kDependent) continue;
            code = static_cast<std::uint16_t>(code | (1u << c));
            const std::int32_t ask = e.ask;  // the insert may move e
            const std::int32_t mi = tab.get_or_insert(cl.canonical(t, o.parent().corner_point(c)));
            Entry& m = tab.entries[static_cast<std::size_t>(mi)];
            if (m.owner == Table::kDependent) throw std::runtime_error(kMasterHangs);
            if (!tab.classified(mi) && m.ask < 0) m.ask = ask;
            slot = mi;
          }
          out.element_code[li] = code;
        }
        ++li;
      }
    }
  }
  // Entries added after this point answer other ranks, no row holds them.
  const std::size_t n_rows = tab.entries.size();

  // --- Owned set and ids (before any resolution, so answers carry gids) ------
  // The fresh owned keys are the pass-1 independent keys this rank owns; a
  // fresh key may repeat a survivor. Their entries resolve right here. They
  // sort on their keys as two 64-bit words (every key field is non-negative).
  struct Fresh {
    std::uint64_t hi, lo;
    std::int32_t entry;
    bool operator<(const Fresh& o) const { return hi < o.hi || (hi == o.hi && lo < o.lo); }
  };
  std::vector<Fresh> fresh;
  for (std::size_t i = 0; i < n_rows; ++i) {
    const Key& k = tab.entries[i].key;
    if (tab.entries[i].owner == me) {
      fresh.push_back(Fresh{(std::uint64_t{static_cast<std::uint32_t>(k[0])} << 32) |
                                static_cast<std::uint32_t>(k[1]),
                            (std::uint64_t{static_cast<std::uint32_t>(k[2])} << 32) |
                                static_cast<std::uint32_t>(k[3]),
                            static_cast<std::int32_t>(i)});
    }
  }
  std::sort(fresh.begin(), fresh.end());
  out.owned_keys.reserve(survivors.size() + fresh.size());
  std::vector<std::int64_t> fresh_at;  // index of fresh[i] in owned_keys
  fresh_at.reserve(fresh.size());
  auto sv = survivors.begin();
  for (const Fresh& f : fresh) {
    const Key& k = tab.entries[static_cast<std::size_t>(f.entry)].key;
    for (; sv != survivors.end() && *sv < k; ++sv) out.owned_keys.push_back(*sv);
    if (sv != survivors.end() && *sv == k) ++sv;
    fresh_at.push_back(static_cast<std::int64_t>(out.owned_keys.size()));
    out.owned_keys.push_back(k);
  }
  out.owned_keys.insert(out.owned_keys.end(), sv, survivors.end());
  out.num_owned = static_cast<std::int64_t>(out.owned_keys.size());
  const auto counts = comm.allgather(out.num_owned);
  out.rank_offsets.assign(static_cast<std::size_t>(p) + 1, 0);
  for (int r = 0; r < p; ++r) {
    out.rank_offsets[static_cast<std::size_t>(r) + 1] =
        out.rank_offsets[static_cast<std::size_t>(r)] + counts[static_cast<std::size_t>(r)];
  }
  out.owned_offset = out.rank_offsets[static_cast<std::size_t>(me)];
  out.num_global = out.rank_offsets[static_cast<std::size_t>(p)];
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    tab.entries[static_cast<std::size_t>(fresh[i].entry)].gid = out.owned_offset + fresh_at[i];
  }
  out.gid_keys.reserve(out.owned_keys.size());
  for (std::size_t i = 0; i < out.owned_keys.size(); ++i) {
    out.gid_keys.emplace_back(out.owned_offset + static_cast<std::int64_t>(i), out.owned_keys[i]);
  }
  const auto owned_gid_of = [&](const Key& k) -> std::int64_t {
    const auto it = std::lower_bound(out.owned_keys.begin(), out.owned_keys.end(), k);
    if (it == out.owned_keys.end() || !(*it == k)) {
      throw std::runtime_error("nodes: owned key missing from the owned set");
    }
    return out.owned_offset + (it - out.owned_keys.begin());
  };

  // --- Resolution -------------------------------------------------------------
  // The owned-key array is complete and rank-owned for all resolution rounds.
  const par::check::RegionGuard owned_guard(comm, out.owned_keys.data(),
                                            out.owned_keys.size() * sizeof(Key),
                                            "nodes owned keys");
  std::vector<std::vector<Key>> req(static_cast<std::size_t>(p));

  // Where the gid of entry ei stands: the gid if this rank knows or owns it,
  // else ~rank (< 0) of the rank to ask — `ask`, the owner of a leaf the
  // point is a corner of, while the point is unclassified here, and the
  // node's owner after. An unclassified point whose `ask` is this rank is
  // classified on the spot: it is a corner of a local leaf, so every
  // touching leaf is local or ghost (only the incremental case, whose pass 1
  // saw just the stale elements, meets one). A master is a corner of its
  // constraining leaf C, at level l, and touches a leaf of level l + 1
  // across C's face or edge; a leaf with the master inside a face or edge
  // would have level l - 1 or less. So under 2:1 balance no master hangs,
  // and one that does means the forest breaks the precondition.
  const auto locate = [&](std::int32_t ei, std::int32_t ask) -> std::int64_t {
    if (!tab.classified(ei)) {
      if (ask != me) return ~std::int64_t{ask};
      const Key k = tab.entries[static_cast<std::size_t>(ei)].key;
      tab.classify_as(ei, nclass().classify(k[0], {k[1], k[2], k[3]}));
    }
    Entry& e = tab.entries[static_cast<std::size_t>(ei)];
    if (e.owner == Table::kDependent) throw std::runtime_error(kMasterHangs);
    if (e.gid >= 0) return e.gid;
    if (e.owner != me) return ~std::int64_t{e.owner};
    e.gid = owned_gid_of(e.key);
    return e.gid;
  };

  // Round 0 walks each distinct entry a row holds once: the independent
  // corners and the masters. Later rounds walk the still-pending ones, each
  // asked of one rank per round. The first request round answers a key asked
  // of its owner with the gid, and a master asked of its leaf's owner with
  // the gid or the node's owner, whom the second round asks. Nothing is left
  // for a third.
  std::vector<std::int32_t> pending;
  for (std::size_t i = 0; i < n_rows; ++i) {
    if (tab.entries[i].owner != Table::kDependent) pending.push_back(static_cast<std::int32_t>(i));
  }
  for (int round = 0;; ++round) {
    std::vector<std::int32_t> still;
    for (const std::int32_t ei : pending) {
      const std::int64_t g = locate(ei, tab.entries[static_cast<std::size_t>(ei)].ask);
      if (g >= 0) continue;
      req[static_cast<std::size_t>(~g)].push_back(tab.entries[static_cast<std::size_t>(ei)].key);
      still.push_back(ei);
    }
    pending = std::move(still);
    const int any =
        comm.allreduce(static_cast<int>(!pending.empty()), par::ReduceOp::logical_or);
    if (!any) break;
    if (round == 2) throw std::logic_error("nodes: resolution needs a third request round");

    ops.nodes_rounds++;
    for (const auto& buf : req) {
      if (buf.empty()) continue;
      ops.nodes_request_batches++;
      ops.nodes_requests_sent += static_cast<std::int64_t>(buf.size());
    }
    const auto req_in = comm.alltoallv(req);
    for (auto& buf : req) buf.clear();

    // A key is routed here as its owner or as the owner of a leaf it is a
    // corner of, so locate() classifies it if new.
    std::vector<std::vector<Answer>> ans(static_cast<std::size_t>(p));
    for (int src = 0; src < p; ++src) {
      for (const Key& k : req_in[static_cast<std::size_t>(src)]) {
        ans[static_cast<std::size_t>(src)].push_back(Answer{k, locate(tab.get_or_insert(k), me)});
      }
    }
    const auto ans_in = comm.alltoallv(ans);
    for (int src = 0; src < p; ++src) {
      for (const Answer& a : ans_in[static_cast<std::size_t>(src)]) {
        Entry& e = tab.entries[static_cast<std::size_t>(tab.get_or_insert(a.key))];
        // Independent: a gid comes from its owner, else the answer names it.
        e.owner = a.gid >= 0 ? src : static_cast<std::int32_t>(~a.gid);
        if (a.gid >= 0) {
          e.gid = a.gid;
          out.gid_keys.emplace_back(a.gid, a.key);
        }
      }
    }
  }

  for (std::size_t li = 0; li < stale.size(); ++li) {
    if (stale[li] == 0) continue;
    for (std::size_t i = li * nc; i < (li + 1) * nc; ++i) {
      out.element_nodes[i] = tab.entries[static_cast<std::size_t>(out.element_nodes[i])].gid;
    }
  }
  return out;
}

template <int Dim>
NodeNumbering<Dim> NodeNumbering<Dim>::build(const Forest<Dim>& forest,
                                             const GhostLayer<Dim>& ghost) {
  const std::vector<std::uint8_t> all(static_cast<std::size_t>(forest.num_local()), 1);
  NodeNumbering out = number_stale<Dim>(forest, ghost, all, {});
  sort_gid_keys(out);
  return out;
}

// ---------------------------------------------------------------------------
// Incremental patching (build_incremental): reuse the previous numbering
// outside the delta neighborhood, run the engine only on the stale elements.
// ---------------------------------------------------------------------------

template <int Dim>
static NodeNumbering<Dim> patch(const Forest<Dim>& forest, const GhostLayer<Dim>& ghost,
                                DeltaSet<Dim>& delta, NodesCache<Dim>& cache) {
  using Oct = Octant<Dim>;
  using Key = typename NodeNumbering<Dim>::Key;
  constexpr int nc = Topo<Dim>::num_corners;
  par::Comm& comm = forest.comm();
  const Connectivity<Dim>& conn = forest.conn();
  OpStats& ops = op_stats();

  NodeNumbering<Dim> old = std::move(cache.numbering);

  // --- Invalidation regions ---------------------------------------------------
  DeltaSet<Dim> global = delta.replicated(comm);
  const auto n_local = static_cast<std::size_t>(forest.num_local());
  if (global.empty()) {
    // Nothing changed anywhere: the cached numbering is the rebuild result.
    ops.nodes_reused += static_cast<std::int64_t>(n_local);
    return old;
  }
  // Delta regions with a point on their tree's boundary are the only ones a
  // point in ANOTHER tree's frame can fall into; when none exist, every
  // cross-tree image check below is skipped wholesale.
  bool any_boundary_region = false;
  global.normalize();
  for (std::size_t t = 0; t < global.regions.size() && !any_boundary_region; ++t) {
    for (const Oct& d : global.regions[t]) {
      for (int a = 0; a < Dim; ++a) {
        if (d.coord(a) == 0 || d.coord(a) + d.size() == Oct::root_len) {
          any_boundary_region = true;
          break;
        }
      }
      if (any_boundary_region) break;
    }
  }
  // Each tree's closed bounding box of its delta regions gates the binary
  // searches of contains_point: nearly every point probed lies outside it.
  struct Box {
    std::array<std::int32_t, 3> lo{}, hi{};
    bool empty = true;
  };
  std::vector<Box> boxes(global.regions.size());
  for (std::size_t t = 0; t < global.regions.size(); ++t) {
    for (const Oct& d : global.regions[t]) {
      Box& b = boxes[t];
      for (int a = 0; a < Dim; ++a) {
        const auto ax = static_cast<std::size_t>(a);
        b.lo[ax] = b.empty ? d.coord(a) : std::min(b.lo[ax], d.coord(a));
        b.hi[ax] = b.empty ? d.coord(a) + d.size() : std::max(b.hi[ax], d.coord(a) + d.size());
      }
      b.empty = false;
    }
  }
  // True iff the lattice point lies in the closed delta of tree t's frame.
  const auto in_delta = [&](int t, const std::array<std::int32_t, 3>& pt) {
    const Box& b = boxes[static_cast<std::size_t>(t)];
    if (b.empty) return false;
    for (int a = 0; a < Dim; ++a) {
      const auto ax = static_cast<std::size_t>(a);
      if (pt[ax] < b.lo[ax] || pt[ax] > b.hi[ax]) return false;
    }
    return global.contains_point(t, pt);
  };
  std::vector<typename Connectivity<Dim>::PointImage> images;  // reused scratch
  // True iff the lattice point lies in the closed delta, in any tree frame.
  const auto point_in_delta = [&](int t, const std::array<std::int32_t, 3>& pt) {
    if (in_delta(t, pt)) return true;
    if (any_boundary_region && !NodeClassifier<Dim>::tree_interior(pt)) {
      conn.point_images(t, pt, images);
      for (const auto& [t2, p2] : images) {
        if (in_delta(t2, p2)) return true;
      }
    }
    return false;
  };

  // --- Align new elements against the cached leaf snapshot --------------------
  // An element's row must be rebuilt (stale) iff one of its corner points
  // lies in the CLOSED delta region, in any tree frame: a corner's
  // classification depends only on its touching leaves, and by octree
  // nesting a leaf overlapping a delta octant is contained in it (the
  // DeltaSet level invariant forbids a coarser leaf), hence touches the
  // corner only if the corner is on the closed delta boundary. This also
  // covers every changed leaf itself. A reused row's hanging slots stay
  // valid by 2:1 balance:
  //  * its corners keep their touching leaves, so a hanging corner keeps its
  //    constraining leaf C and its masters, the corners of C's face or edge;
  //  * the leaves one level finer across C that make the corner hang stay
  //    too: coarsening them would change the corner's touching leaves, and
  //    refining them would break 2:1 against C; so the masters stay
  //    independent;
  //  * refine, coarsen and balance are rank-local (a changed partition
  //    forces a full build), so every master keeps its owner;
  //  * a master whose own touching leaves changed drops out of the survivors
  //    and comes back through the engine, because its owner's leaf at the
  //    master is stale by this rule.
  // So the gid remap finds every master; its invalidated-node throw checks
  // that. Every element that is not stale must exist unchanged in the
  // snapshot.
  std::vector<std::int64_t> old_of(n_local, -1);  // reused: old local index
  std::vector<std::uint8_t> stale(n_local, 0);
  std::int64_t n_stale = 0;
  {
    std::int64_t li = 0, old_base = 0;
    for (int t = 0; t < forest.num_trees(); ++t) {
      const auto& news = forest.tree(t);
      const auto& olds = cache.leaves[static_cast<std::size_t>(t)];
      const auto& regions = global.regions[static_cast<std::size_t>(t)];
      std::size_t oi = 0;
      for (const Oct& o : news) {
        // Closed-box overlap of the element with the tree's delta regions is
        // equivalent to "some corner lies in a closed region" up to the
        // face-adjacent neighbors (octant nesting rules out a region hiding
        // strictly inside a leaf) — one linear region scan instead of 2^Dim
        // point probes. Cross-frame corners still need the image walk.
        bool is_stale = std::any_of(regions.begin(), regions.end(), [&](const Oct& d) {
          for (int a = 0; a < Dim; ++a) {
            if (d.coord(a) > o.coord(a) + o.size() || o.coord(a) > d.coord(a) + d.size()) {
              return false;
            }
          }
          return true;
        });
        bool on_tree_boundary = false;
        for (int a = 0; a < Dim; ++a) {
          on_tree_boundary = on_tree_boundary || o.coord(a) == 0 ||
                             o.coord(a) + o.size() == Oct::root_len;
        }
        if (!is_stale && any_boundary_region && on_tree_boundary) {
          for (int c = 0; c < nc && !is_stale; ++c) {
            const auto cp = o.corner_point(c);
            if (NodeClassifier<Dim>::tree_interior(cp)) continue;
            conn.point_images(t, cp, images);
            for (const auto& [t2, p2] : images) {
              if (in_delta(t2, p2)) {
                is_stale = true;
                break;
              }
            }
          }
        }
        if (is_stale) {
          stale[static_cast<std::size_t>(li)] = 1;
          ++n_stale;
        } else {
          while (oi < olds.size() && olds[oi] < o) ++oi;
          if (oi >= olds.size() || !(olds[oi] == o)) {
            throw std::runtime_error("nodes: changed element escaped the delta closure");
          }
          const std::int64_t og = old_base + static_cast<std::int64_t>(oi);
          ++oi;
          old_of[static_cast<std::size_t>(li)] = og;
        }
        ++li;
      }
      old_base += static_cast<std::int64_t>(olds.size());
    }
  }
  ops.nodes_patched += n_stale;
  ops.nodes_reused += static_cast<std::int64_t>(n_local) - n_stale;

  // --- Surviving owned keys --------------------------------------------------
  // A point's classification depends only on its touching leaves, and a
  // touching leaf changed iff the point lies in the closed raw delta region
  // (in some tree frame): old owned nodes outside it survive verbatim. The
  // engine merges them with the stale corners' owned keys into exactly the
  // set a full rebuild would own, so the assigned ids coincide.
  std::vector<Key> survivors;
  survivors.reserve(old.owned_keys.size());
  for (const Key& k : old.owned_keys) {
    if (!point_in_delta(k[0], {k[1], k[2], k[3]})) survivors.push_back(k);
  }
  NodeNumbering<Dim> out = number_stale<Dim>(forest, ghost, stale, survivors);

  // --- Old -> new gid remap of the reused rows -------------------------------
  // Per-rank id blocks are preserved and the within-rank shift is monotone in
  // key order (subtract invalidated predecessors, add fresh ones).
  std::vector<Key> removed_eff, added_eff;
  std::set_difference(old.owned_keys.begin(), old.owned_keys.end(), out.owned_keys.begin(),
                      out.owned_keys.end(), std::back_inserter(removed_eff));
  std::set_difference(out.owned_keys.begin(), out.owned_keys.end(), old.owned_keys.begin(),
                      old.owned_keys.end(), std::back_inserter(added_eff));
  const auto removed_all = comm.allgatherv(removed_eff);
  const auto added_all = comm.allgatherv(added_eff);
  // Memo by position in old.gid_keys, which holds every gid the old rows
  // reference, sorted: an owned gid sits at a fixed offset from the first
  // owned record, any other is found by binary search. Local-sized, where a
  // table over all old gids would grow with the whole mesh on every rank.
  const auto by_gid = [](const auto& a, std::int64_t g) { return a.first < g; };
  const auto owned_at = static_cast<std::size_t>(
      std::lower_bound(old.gid_keys.begin(), old.gid_keys.end(), old.owned_offset, by_gid) -
      old.gid_keys.begin());
  std::vector<std::int64_t> remap_memo(old.gid_keys.size(), -1);
  const auto remap = [&](std::int64_t g) -> std::int64_t {
    const std::int64_t rel = g - old.owned_offset;
    std::size_t at = 0;
    if (rel >= 0 && rel < old.num_owned) {
      at = owned_at + static_cast<std::size_t>(rel);
    } else {
      const auto it = std::lower_bound(old.gid_keys.begin(), old.gid_keys.end(), g, by_gid);
      if (it == old.gid_keys.end() || it->first != g) {
        throw std::runtime_error("nodes: reused element references a gid unknown to this rank");
      }
      at = static_cast<std::size_t>(it - old.gid_keys.begin());
    }
    std::int64_t& memo = remap_memo[at];
    if (memo >= 0) return memo;
    const int r = old.owner_of_gid(g);
    const Key& k = old.gid_keys[at].second;
    const auto& rem = removed_all[static_cast<std::size_t>(r)];
    if (std::binary_search(rem.begin(), rem.end(), k)) {
      throw std::runtime_error("nodes: reused element references an invalidated node");
    }
    const auto& add = added_all[static_cast<std::size_t>(r)];
    const std::int64_t ng =
        out.rank_offsets[static_cast<std::size_t>(r)] +
        (g - old.rank_offsets[static_cast<std::size_t>(r)]) -
        (std::lower_bound(rem.begin(), rem.end(), k) - rem.begin()) +
        (std::lower_bound(add.begin(), add.end(), k) - add.begin());
    memo = ng;
    out.gid_keys.emplace_back(ng, k);
    return ng;
  };
  for (std::size_t li = 0; li < n_local; ++li) {
    if (stale[li] != 0) continue;
    const auto og = static_cast<std::size_t>(old_of[li]);
    out.element_code[li] = old.element_code[og];
    for (int c = 0; c < nc; ++c) {
      out.element_nodes[li * nc + static_cast<std::size_t>(c)] =
          remap(old.element_nodes[og * nc + static_cast<std::size_t>(c)]);
    }
  }
  // gid -> key records: owned + answered + remap-recorded covers exactly the
  // gids referenced by the element rows, same as a full rebuild.
  sort_gid_keys(out);
  return out;
}

template <int Dim>
const NodeNumbering<Dim>& NodeNumbering<Dim>::build_incremental(const Forest<Dim>& forest,
                                                                const GhostLayer<Dim>& ghost,
                                                                DeltaSet<Dim>& delta,
                                                                NodesCache<Dim>& cache) {
  par::Comm& comm = forest.comm();
  const bool bad_local = !cache.valid || delta.overflow || cache.markers != forest.markers();
  if (comm.allreduce(static_cast<int>(bad_local), par::ReduceOp::logical_or) != 0) {
    cache.numbering = build(forest, ghost);
  } else {
    cache.numbering = patch<Dim>(forest, ghost, delta, cache);
  }
  cache.markers = forest.markers();
  cache.leaves.assign(static_cast<std::size_t>(forest.num_trees()), {});
  for (int t = 0; t < forest.num_trees(); ++t) {
    cache.leaves[static_cast<std::size_t>(t)] = forest.tree(t);
  }
  cache.valid = true;
  return cache.numbering;
}

template <int Dim>
const typename NodeNumbering<Dim>::Key& NodeNumbering<Dim>::key_of(std::int64_t gid) const {
  const auto it = std::lower_bound(gid_keys.begin(), gid_keys.end(), gid,
                                   [](const auto& a, std::int64_t g) { return a.first < g; });
  if (it == gid_keys.end() || it->first != gid) {
    throw std::runtime_error("NodeNumbering::key_of: gid not referenced on this rank");
  }
  return it->second;
}

template struct NodeNumbering<2>;
template struct NodeNumbering<3>;

}  // namespace esamr::forest
