// "Nodes" (paper §II-C): build the globally unique numbering of independent
// node points and the hanging-node constraint expansions.
//
// One engine (number_stale) serves the full and the incremental build; a
// full build is the incremental case with nothing cached and every local
// element stale. For the stale elements it
//
//  1. classifies every corner against the local + ghost leaf directory,
//  2. merges the fresh owned independent keys with the caller's surviving
//     ones and assigns contiguous per-rank ids (one allgather),
//  3. resolves every corner by a memoized recursive expansion onto
//     independent gids. What this rank cannot close it asks of the rank that
//     can advance the chain, and each answer ships the answerer's FULL
//     transitive expansion (gids attached) rather than a single hop.
//     Candidate owners come from the post-balance ghost layer, so in the
//     common case one request batch and one answer batch settle everything;
//     only constraint chains that cross three or more ranks (rare, measured
//     by OpStats::nodes_rounds) need another round. The loop is
//     allreduce-terminated with a 64-round safety cap,
//  4. fills the stale elements' slots.
//
// build_incremental adds the patch-only work around the engine: aligning the
// new elements against the cached leaves to find the stale ones, selecting
// the owned keys that survive, and the monotone old -> new gid remap of the
// reused slots.
#include "forest/nodes.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "forest/stats.h"

namespace esamr::forest {

namespace {

/// Request payload (a canonical node key).
struct KeyMsg {
  std::int32_t tree, x, y, z;
};

/// Answer record kinds (serialized int64 stream).
constexpr std::int64_t kRecExpansion = 0;  // n x (gid, weight bits, key)
constexpr std::int64_t kRecOwner = 1;      // node independent; re-ask owner
constexpr std::int64_t kRecMasters = 2;    // n x (key, ask rank)

/// Local classification of a node point.
template <int Dim>
struct Classification {
  bool independent = false;
  int owner = -1;                                            // if independent
  std::vector<typename NodeNumbering<Dim>::Key> masters;     // if dependent
  std::vector<int> ask;                                      // rank to ask per master
};

struct KeyHash {
  std::size_t operator()(const std::array<std::int32_t, 4>& k) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const std::int32_t v : k) {
      h ^= static_cast<std::uint32_t>(v) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return static_cast<std::size_t>(h);
  }
};

/// Shared geometric machinery: leaf lookup, frame/canonical key logic, and
/// the point classification rule (paper Fig. 3): a point is independent iff
/// it is a corner of every touching leaf; its owner is the minimum touching
/// rank; a hanging point's masters are the corners of the face/edge of the
/// coarsest incidence for which it is not a corner.
template <int Dim>
struct NodeClassifier {
  using Oct = Octant<Dim>;
  using T = Topo<Dim>;
  using Key = typename NodeNumbering<Dim>::Key;
  using Cls = Classification<Dim>;

  const Connectivity<Dim>& conn;
  std::vector<std::vector<LeafRef<Dim>>> dir;
  int nranks;
  // Recently-hit directory positions, move-to-front. The 2^Dim x 2^Dim
  // quadrant queries issued for one element's corners revisit the same
  // handful of neighborhood leaves, but in Morton order those leaves are
  // scattered across the array — a single last-hit hint misses most of them
  // while a small LRU catches nearly all. Safe under the thread-per-rank
  // model because each rank builds its own classifier.
  static constexpr int kLru = 8;
  mutable std::array<std::int32_t, kLru> lru{};
  mutable int lru_tree = -1;
  mutable std::vector<std::size_t> seed;  // per-tree cursor for seed_hint

  NodeClassifier(const Forest<Dim>& forest, const GhostLayer<Dim>& ghost)
      : conn(forest.conn()),
        dir(build_leaf_directory(forest, ghost)),
        nranks(forest.comm().size()),
        seed(dir.size(), 0) {
    lru.fill(-1);
  }

  /// True iff the point lies strictly inside the tree's root cube, i.e. on no
  /// macro face/edge/corner — then it has no images in other tree frames.
  static bool tree_interior(const std::array<std::int32_t, 3>& pt) {
    for (int a = 0; a < Dim; ++a) {
      if (pt[static_cast<std::size_t>(a)] <= 0 ||
          pt[static_cast<std::size_t>(a)] >= Oct::root_len) {
        return false;
      }
    }
    return true;
  }

  /// Find the known leaf containing a (max-level) cell, or nullptr.
  const LeafRef<Dim>* find_leaf(int t, const Oct& cell) const {
    const auto& v = dir[static_cast<std::size_t>(t)];
    if (t != lru_tree) {
      lru.fill(-1);
      lru_tree = t;
    }
    for (int i = 0; i < kLru; ++i) {
      const std::int32_t idx = lru[static_cast<std::size_t>(i)];
      if (idx < 0) break;
      if (v[static_cast<std::size_t>(idx)].oct.contains(cell)) {
        for (int j = i; j > 0; --j) {
          lru[static_cast<std::size_t>(j)] = lru[static_cast<std::size_t>(j - 1)];
        }
        lru[0] = idx;
        return &v[static_cast<std::size_t>(idx)];
      }
    }
    const auto it = std::upper_bound(
        v.begin(), v.end(), cell,
        [](const Oct& a, const LeafRef<Dim>& b) { return a < b.oct; });
    if (it == v.begin()) return nullptr;
    const LeafRef<Dim>* cand = &*(it - 1);
    if (!cand->oct.contains(cell)) return nullptr;
    for (int j = kLru - 1; j > 0; --j) {
      lru[static_cast<std::size_t>(j)] = lru[static_cast<std::size_t>(j - 1)];
    }
    lru[0] = static_cast<std::int32_t>(cand - v.data());
    return cand;
  }

  /// Prime the leaf memo with a local element known to be in the directory
  /// (amortized O(1) when elements are visited in SFC order).
  void seed_hint(int t, const Oct& o) const {
    const auto& v = dir[static_cast<std::size_t>(t)];
    std::size_t& cur = seed[static_cast<std::size_t>(t)];
    if (cur >= v.size() || !(v[cur].oct == o)) {
      if (cur < v.size() && v[cur].oct < o) {
        while (!(v[cur].oct == o)) ++cur;  // forward scan past ghosts
      } else {
        cur = static_cast<std::size_t>(
            std::lower_bound(v.begin(), v.end(), o,
                             [](const LeafRef<Dim>& a, const Oct& b) { return a.oct < b; }) -
            v.begin());
      }
    }
    if (t != lru_tree) {
      lru.fill(-1);
      lru_tree = t;
    }
    for (int j = kLru - 1; j > 0; --j) {
      lru[static_cast<std::size_t>(j)] = lru[static_cast<std::size_t>(j - 1)];
    }
    lru[0] = static_cast<std::int32_t>(cur);
  }

  /// All frame representations of a point: (tree, point), self first.
  std::vector<std::pair<int, std::array<std::int32_t, 3>>> frames(
      int t, std::array<std::int32_t, 3> pt) const {
    std::vector<std::pair<int, std::array<std::int32_t, 3>>> fr;
    fr.emplace_back(t, pt);
    for (const auto& im : conn.point_images(t, pt)) fr.push_back(im);
    return fr;
  }

  Key canonical(int t, std::array<std::int32_t, 3> pt) const {
    if (tree_interior(pt)) return Key{t, pt[0], pt[1], pt[2]};  // sole frame
    auto fr = frames(t, pt);
    std::sort(fr.begin(), fr.end());
    const auto& [ct, cp] = fr.front();
    return Key{ct, cp[0], cp[1], cp[2]};
  }

  /// One incidence of a leaf at the node point, in some tree frame.
  struct Touch {
    int tree;
    Oct oct;
    int owner;
    std::array<std::int32_t, 3> pt;  // the node point in this frame
    bool corner;                     // point is a corner of the leaf
  };

  /// Classify the node point (t, pt). The caller guarantees the point is a
  /// corner of one of this rank's local elements, so every touching leaf is
  /// known locally (local or ghost).
  Cls classify(int t, std::array<std::int32_t, 3> pt) const {
    // Inline buffer: frames x quadrants incidences, no heap traffic on the
    // (dominant) interior path. Macro-corner valence is small in practice;
    // overflow fails loudly rather than silently truncating.
    std::array<Touch, 64> touching;
    std::size_t ntouch = 0;
    const auto visit_frame = [&](int ft, const std::array<std::int32_t, 3>& fp) {
      for (int q = 0; q < T::num_corners; ++q) {
        // The finest-level cell adjacent to the point in quadrant q.
        Oct cell;
        cell.level = Oct::max_level;
        bool ok = true;
        for (int a = 0; a < Dim; ++a) {
          const std::int32_t c = fp[static_cast<std::size_t>(a)] - (((q >> a) & 1) ? 1 : 0);
          if (c < 0 || c >= Oct::root_len) ok = false;
          cell.set_coord(a, c);
        }
        if (!ok) continue;
        const LeafRef<Dim>* leaf = find_leaf(ft, cell);
        if (leaf == nullptr) {
          throw std::runtime_error("nodes: touching leaf not in local+ghost storage");
        }
        bool is_corner = true;
        for (int a = 0; a < Dim; ++a) {
          const std::int32_t rel = fp[static_cast<std::size_t>(a)] - leaf->oct.coord(a);
          if (rel != 0 && rel != leaf->oct.size()) is_corner = false;
        }
        Touch tc{ft, leaf->oct, leaf->owner, fp, is_corner};
        bool dup = false;
        for (std::size_t x = 0; x < ntouch; ++x) {
          const Touch& tx = touching[x];
          if (tx.tree == tc.tree && tx.oct == tc.oct && tx.pt == tc.pt) dup = true;
        }
        if (!dup) {
          if (ntouch == touching.size()) {
            throw std::runtime_error("nodes: corner valence exceeds touch buffer");
          }
          touching[ntouch++] = tc;
        }
      }
    };
    if (tree_interior(pt)) {
      visit_frame(t, pt);  // interior: no images, skip the frames machinery
    } else {
      for (const auto& [ft, fp] : frames(t, pt)) visit_frame(ft, fp);
    }
    Cls cls;
    cls.independent = true;
    cls.owner = nranks;
    for (std::size_t x = 0; x < ntouch; ++x) {
      cls.owner = std::min(cls.owner, touching[x].owner);
      if (!touching[x].corner) cls.independent = false;
    }
    if (cls.independent) return cls;
    // Dependent: the constraining entity is the face/edge of the coarsest
    // incidence for which the point is not a corner.
    const Touch* best = nullptr;
    for (std::size_t x = 0; x < ntouch; ++x) {
      const Touch& tc = touching[x];
      if (!tc.corner && (best == nullptr || tc.oct.level < best->oct.level)) best = &tc;
    }
    const std::int32_t h = best->oct.size();
    std::array<bool, 3> interior{false, false, false};
    for (int a = 0; a < Dim; ++a) {
      const std::int32_t rel = best->pt[static_cast<std::size_t>(a)] - best->oct.coord(a);
      interior[static_cast<std::size_t>(a)] = (rel != 0 && rel != h);
    }
    // Masters: corners of the constraining entity (2^k of them for k
    // interior axes).
    std::vector<int> axes;
    for (int a = 0; a < Dim; ++a)
      if (interior[static_cast<std::size_t>(a)]) axes.push_back(a);
    for (int combo = 0; combo < (1 << axes.size()); ++combo) {
      std::array<std::int32_t, 3> m = best->pt;
      for (std::size_t i = 0; i < axes.size(); ++i) {
        m[static_cast<std::size_t>(axes[i])] =
            best->oct.coord(axes[i]) + (((combo >> i) & 1) ? h : 0);
      }
      cls.masters.push_back(canonical(best->tree, m));
      cls.ask.push_back(best->owner);
    }
    return cls;
  }
};

/// Open-addressed hash table unifying the classification and resolution state
/// of a node key. One probe serves both questions (classified? resolved?),
/// entries live in a flat vector (indices stay valid across growth), and
/// element corners cache their entry index from pass 1 so the resolution scan
/// and the final fill do no hashing at all.
template <int Dim>
struct NodeTable {
  using Key = typename NodeNumbering<Dim>::Key;
  using Contrib = typename NodeNumbering<Dim>::Contrib;

  struct Entry {
    Key key;
    Classification<Dim> cls;    // valid iff `classified`
    std::vector<Contrib> res;   // expansion onto independent gids; empty = unresolved
    bool classified = false;
  };

  std::vector<std::int32_t> slot;  // power-of-two probe table, -1 = empty
  std::vector<Entry> entries;
  std::size_t mask = 0;

  explicit NodeTable(std::size_t expect) {
    std::size_t cap = 64;
    while (cap < expect * 3) cap <<= 1;
    slot.assign(cap, -1);
    mask = cap - 1;
    entries.reserve(expect);
  }

  std::size_t probe(const Key& k) const {
    std::size_t i = KeyHash{}(k) & mask;
    while (slot[i] >= 0 && entries[static_cast<std::size_t>(slot[i])].key != k) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Entry index of `k`, inserting an unclassified, unresolved entry if new.
  std::int32_t get_or_insert(const Key& k) {
    std::size_t i = probe(k);
    if (slot[i] >= 0) return slot[i];
    if ((entries.size() + 1) * 3 > slot.size() * 2) {
      slot.assign(slot.size() * 2, -1);
      mask = slot.size() - 1;
      for (std::size_t e = 0; e < entries.size(); ++e) {
        std::size_t j = KeyHash{}(entries[e].key) & mask;
        while (slot[j] >= 0) j = (j + 1) & mask;
        slot[j] = static_cast<std::int32_t>(e);
      }
      i = probe(k);
    }
    const auto idx = static_cast<std::int32_t>(entries.size());
    slot[i] = idx;
    entries.push_back(Entry{k, {}, {}, false});
    return idx;
  }
};

/// A local element whose corner slots the engine builds.
template <int Dim>
struct StaleElem {
  std::int32_t tree;
  Octant<Dim> oct;
  std::int64_t li;  // local element index
};

/// The (gid, key) records of a numbering, sorted by gid and deduplicated.
template <typename GidKeys>
void sort_gid_keys(GidKeys& v) {
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) { return a.first < b.first; });
  v.erase(std::unique(v.begin(), v.end(),
                      [](const auto& a, const auto& b) { return a.first == b.first; }),
          v.end());
}

}  // namespace

/// The Nodes engine (collective; see the file header). Numbers the owned set
/// `survivors` ∪ {owned corners of `stale`} (`survivors` sorted), resolves
/// the corners of the stale elements and fills their rows of out.elements,
/// which is sized to every local element. out.gid_keys holds the referenced
/// (gid, key) records unsorted, so the caller can add its own before
/// sort_gid_keys.
template <int Dim>
static NodeNumbering<Dim> number_stale(
    const Forest<Dim>& forest, const GhostLayer<Dim>& ghost,
    const std::vector<StaleElem<Dim>>& stale,
    const std::vector<typename NodeNumbering<Dim>::Key>& survivors) {
  using Key = typename NodeNumbering<Dim>::Key;
  using Contrib = typename NodeNumbering<Dim>::Contrib;
  constexpr int nc = Topo<Dim>::num_corners;
  par::Comm& comm = forest.comm();
  const int p = comm.size();
  const int me = comm.rank();
  OpStats& ops = op_stats();

  // --- Pass 1: classify the corners of the stale elements --------------------
  // Lazy: a rank with nothing stale builds the leaf directory only if the
  // resolution phase routes a request its way.
  std::optional<NodeClassifier<Dim>> nclass_opt;
  const auto nclass = [&]() -> const NodeClassifier<Dim>& {
    if (!nclass_opt) nclass_opt.emplace(forest, ghost);
    return *nclass_opt;
  };
  NodeTable<Dim> tab(stale.size() * 2 + 16);
  std::vector<std::array<std::int32_t, nc>> stale_ent(stale.size());  // entry index per corner
  // Direct-mapped front cache for the 2^Dim-fold corner reuse between
  // SFC-adjacent elements: a hit costs one L2 touch instead of a probe walk
  // through the (much larger) table and entry arrays. Two to four lines per
  // element (about one distinct corner each), capped to stay L2-resident.
  const int cache_bits = std::clamp(static_cast<int>(std::bit_width(stale.size())) + 1, 6, 15);
  const std::size_t cache_mask = (std::size_t{1} << cache_bits) - 1;
  std::vector<std::pair<Key, std::int32_t>> front(cache_mask + 1, {Key{-1, -1, -1, -1}, -1});
  for (std::size_t s = 0; s < stale.size(); ++s) {
    const StaleElem<Dim>& se = stale[s];
    const NodeClassifier<Dim>& cl = nclass();
    cl.seed_hint(se.tree, se.oct);
    for (int c = 0; c < nc; ++c) {
      const auto cp = se.oct.corner_point(c);
      const Key k = cl.canonical(se.tree, cp);
      auto& line = front[KeyHash{}(k) & cache_mask];
      std::int32_t ei;
      if (line.first == k) {
        ei = line.second;
      } else {
        ei = tab.get_or_insert(k);
        line = {k, ei};
        auto& e = tab.entries[static_cast<std::size_t>(ei)];
        if (!e.classified) {
          e.cls = cl.classify(se.tree, cp);
          e.classified = true;
        }
      }
      stale_ent[s][static_cast<std::size_t>(c)] = ei;
    }
  }
  // Entries added after this point are masters/answers, not element corners.
  const std::size_t n_pass1 = tab.entries.size();

  // --- Owned set and ids (before any resolution, so answers carry gids) ------
  // The fresh owned keys are the pass-1 independent keys this rank owns; a
  // fresh key may repeat a survivor. Their entries resolve right here.
  std::vector<std::pair<Key, std::int32_t>> fresh;  // (key, entry)
  for (std::size_t i = 0; i < n_pass1; ++i) {
    const auto& e = tab.entries[i];
    if (e.cls.independent && e.cls.owner == me) {
      fresh.emplace_back(e.key, static_cast<std::int32_t>(i));
    }
  }
  std::sort(fresh.begin(), fresh.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  NodeNumbering<Dim> out;
  out.owned_keys.reserve(survivors.size() + fresh.size());
  std::vector<std::int64_t> fresh_at;  // index of fresh[i] in owned_keys
  fresh_at.reserve(fresh.size());
  auto sv = survivors.begin();
  for (const auto& [k, ei] : fresh) {
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
    tab.entries[static_cast<std::size_t>(fresh[i].second)].res.assign(
        1, Contrib{out.owned_offset + fresh_at[i], 1.0});
  }
  out.gid_keys.reserve(out.owned_keys.size());
  for (std::size_t i = 0; i < out.owned_keys.size(); ++i) {
    out.gid_keys.emplace_back(out.owned_offset + static_cast<std::int64_t>(i), out.owned_keys[i]);
  }
  // Keys of the gids learned from answers, for re-shipping expansions.
  std::unordered_map<std::int64_t, Key> fetched;
  const auto key_of_gid = [&](std::int64_t g) -> const Key& {
    return (g >= out.owned_offset && g < out.owned_offset + out.num_owned)
               ? out.owned_keys[static_cast<std::size_t>(g - out.owned_offset)]
               : fetched.at(g);
  };
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
  std::set<std::pair<Key, int>> asked;
  std::vector<std::vector<KeyMsg>> req(static_cast<std::size_t>(p));

  // Classify a key routed to this rank: it owns the node or its constraining
  // leaf, so the point touches a local leaf and every touching leaf is in
  // local + ghost storage.
  const auto classify_entry = [&](std::int32_t ei) {
    auto& e = tab.entries[static_cast<std::size_t>(ei)];
    e.cls = nclass().classify(e.key[0], {e.key[1], e.key[2], e.key[3]});
    e.classified = true;
  };

  // Memoized recursive expansion onto independent gids. Constraint chains are
  // acyclic (the constraining entity's level strictly decreases), so plain
  // recursion terminates. An unclassified key whose routing hint is this rank
  // is classified on the spot (only the incremental case, whose pass 1 saw
  // just the stale elements, meets one), and an independent key this rank
  // owns takes its gid from the owned set. On any other miss, `collect`
  // routes one request to the rank that can advance the chain: the owner for
  // an independent key, the rank that classified the constraining leaf
  // (`hint`) for an unclassified one. Entries may grow during recursion, so
  // state is re-fetched by index after every recursive call.
  const auto expand = [&](auto&& self, std::int32_t ei, int hint, bool collect) -> bool {
    if (!tab.entries[static_cast<std::size_t>(ei)].res.empty()) return true;
    const auto note = [&](int target) {
      if (!collect) return;
      if (target < 0) throw std::runtime_error("nodes: unclassified key without hint");
      const Key& k = tab.entries[static_cast<std::size_t>(ei)].key;
      if (asked.insert({k, target}).second) {
        req[static_cast<std::size_t>(target)].push_back(KeyMsg{k[0], k[1], k[2], k[3]});
      }
    };
    if (!tab.entries[static_cast<std::size_t>(ei)].classified) {
      if (hint != me) {
        note(hint);
        return false;
      }
      classify_entry(ei);
    }
    {
      const auto& e = tab.entries[static_cast<std::size_t>(ei)];
      if (e.cls.independent) {
        if (e.cls.owner == me) {
          const std::int64_t g = owned_gid_of(e.key);
          tab.entries[static_cast<std::size_t>(ei)].res.assign(1, Contrib{g, 1.0});
          return true;
        }
        note(e.cls.owner);  // gid not yet fetched from the owner
        return false;
      }
    }
    // Dependent: masters are copied out first — the recursive calls below may
    // insert entries and reallocate the entry vector.
    std::array<Key, 4> masters;
    std::array<int, 4> ask{};
    std::size_t nm;
    {
      const auto& cls = tab.entries[static_cast<std::size_t>(ei)].cls;
      nm = cls.masters.size();
      for (std::size_t i = 0; i < nm; ++i) {
        masters[i] = cls.masters[i];
        ask[i] = cls.ask[i];
      }
    }
    bool all = true;
    std::array<std::int32_t, 4> mi;
    for (std::size_t i = 0; i < nm; ++i) {
      mi[i] = tab.get_or_insert(masters[i]);
      if (!self(self, mi[i], ask[i], collect)) all = false;
    }
    if (!all) return false;
    // Flat accumulation (a handful of masters x contribs), in master order per
    // gid, then sorted by gid.
    std::vector<Contrib> v;
    const double w = 1.0 / static_cast<double>(nm);
    for (std::size_t i = 0; i < nm; ++i) {
      for (const Contrib& c : tab.entries[static_cast<std::size_t>(mi[i])].res) {
        bool found = false;
        for (Contrib& x : v) {
          if (x.gid == c.gid) {
            x.weight += w * c.weight;
            found = true;
            break;
          }
        }
        if (!found) v.push_back(Contrib{c.gid, w * c.weight});
      }
    }
    std::sort(v.begin(), v.end(), [](const Contrib& a, const Contrib& b) { return a.gid < b.gid; });
    tab.entries[static_cast<std::size_t>(ei)].res = std::move(v);
    return true;
  };

  // Round 0 walks each distinct pass-1 entry once (every element corner maps
  // to one); later rounds only the still-pending entries (the frontier), so
  // local-only regions are scanned exactly once.
  std::vector<std::int32_t> pending(n_pass1);
  for (std::size_t i = 0; i < n_pass1; ++i) pending[i] = static_cast<std::int32_t>(i);
  for (int round = 0;; ++round) {
    if (round > 64) throw std::runtime_error("nodes: resolution did not converge");
    std::vector<std::int32_t> still;
    for (const std::int32_t ei : pending) {
      if (!expand(expand, ei, -1, true)) still.push_back(ei);
    }
    pending = std::move(still);
    const int any =
        comm.allreduce(static_cast<int>(!pending.empty()), par::ReduceOp::logical_or);
    if (!any) break;

    ops.nodes_rounds++;
    for (const auto& buf : req) {
      if (buf.empty()) continue;
      ops.nodes_request_batches++;
      ops.nodes_requests_sent += static_cast<std::int64_t>(buf.size());
    }
    const auto req_in = comm.alltoallv(req);
    for (auto& buf : req) buf.clear();

    // Answer every incoming request with the deepest local knowledge: the
    // full transitive expansion when it closes over known gids, otherwise
    // the direct masters (or the owner to re-ask) so the requester can route
    // the next hop precisely.
    std::vector<std::vector<std::int64_t>> ans(static_cast<std::size_t>(p));
    for (int src = 0; src < p; ++src) {
      auto& buf = ans[static_cast<std::size_t>(src)];
      for (const KeyMsg& km : req_in[static_cast<std::size_t>(src)]) {
        const std::int32_t ei = tab.get_or_insert(Key{km.tree, km.x, km.y, km.z});
        if (!tab.entries[static_cast<std::size_t>(ei)].classified) classify_entry(ei);
        buf.insert(buf.end(), {km.tree, km.x, km.y, km.z});
        if (expand(expand, ei, -1, false)) {
          const auto& v = tab.entries[static_cast<std::size_t>(ei)].res;
          buf.push_back(kRecExpansion);
          buf.push_back(static_cast<std::int64_t>(v.size()));
          for (const Contrib& c : v) {
            const Key& ck = key_of_gid(c.gid);
            buf.insert(buf.end(),
                       {c.gid, std::bit_cast<std::int64_t>(c.weight), ck[0], ck[1], ck[2], ck[3]});
          }
        } else {
          const auto& cls = tab.entries[static_cast<std::size_t>(ei)].cls;
          if (cls.independent) {
            buf.push_back(kRecOwner);
            buf.push_back(cls.owner);
          } else {
            buf.push_back(kRecMasters);
            buf.push_back(static_cast<std::int64_t>(cls.masters.size()));
            for (std::size_t i = 0; i < cls.masters.size(); ++i) {
              const Key& m = cls.masters[i];
              buf.insert(buf.end(), {m[0], m[1], m[2], m[3], cls.ask[i]});
            }
          }
        }
      }
    }
    const auto ans_in = comm.alltoallv(ans);
    for (const auto& from : ans_in) {
      for (std::size_t i = 0; i < from.size();) {
        const Key k{static_cast<std::int32_t>(from[i]), static_cast<std::int32_t>(from[i + 1]),
                    static_cast<std::int32_t>(from[i + 2]), static_cast<std::int32_t>(from[i + 3])};
        const std::int64_t kind = from[i + 4];
        const std::int64_t n = from[i + 5];
        i += 6;
        ops.nodes_answers_recv++;
        const std::int32_t ei = tab.get_or_insert(k);
        if (kind == kRecExpansion) {
          std::vector<Contrib> v;
          v.reserve(static_cast<std::size_t>(n));
          for (std::int64_t e = 0; e < n; ++e) {
            const std::int64_t gid = from[i];
            const double w = std::bit_cast<double>(from[i + 1]);
            const Key ck{static_cast<std::int32_t>(from[i + 2]),
                         static_cast<std::int32_t>(from[i + 3]),
                         static_cast<std::int32_t>(from[i + 4]),
                         static_cast<std::int32_t>(from[i + 5])};
            i += 6;
            v.push_back(Contrib{gid, w});
            // Record the member gid's key, and let other chains resolve
            // through it without a second fetch.
            const std::int32_t ci = tab.get_or_insert(ck);
            auto& ce = tab.entries[static_cast<std::size_t>(ci)];
            if (ce.res.empty()) ce.res.assign(1, Contrib{gid, 1.0});
            out.gid_keys.emplace_back(gid, ck);
            fetched.emplace(gid, ck);
          }
          tab.entries[static_cast<std::size_t>(ei)].res = std::move(v);
        } else if (kind == kRecOwner) {
          auto& e = tab.entries[static_cast<std::size_t>(ei)];
          e.cls = Classification<Dim>{};
          e.cls.independent = true;
          e.cls.owner = static_cast<int>(n);  // owner rides in the count slot
          e.classified = true;
        } else {
          auto& e = tab.entries[static_cast<std::size_t>(ei)];
          e.cls = Classification<Dim>{};
          e.cls.independent = false;
          for (std::int64_t rec = 0; rec < n; ++rec) {
            e.cls.masters.push_back(Key{static_cast<std::int32_t>(from[i]),
                                        static_cast<std::int32_t>(from[i + 1]),
                                        static_cast<std::int32_t>(from[i + 2]),
                                        static_cast<std::int32_t>(from[i + 3])});
            e.cls.ask.push_back(static_cast<int>(from[i + 4]));
            i += 5;
          }
          e.classified = true;
        }
      }
    }
  }

  // --- Fill the stale rows (entry indices cached from pass 1) ----------------
  out.elements.resize(static_cast<std::size_t>(forest.num_local()));
  for (std::size_t s = 0; s < stale.size(); ++s) {
    auto& row = out.elements[static_cast<std::size_t>(stale[s].li)];
    for (int c = 0; c < nc; ++c) {
      row[static_cast<std::size_t>(c)] =
          tab.entries[static_cast<std::size_t>(stale_ent[s][static_cast<std::size_t>(c)])].res;
    }
  }
  return out;
}

template <int Dim>
NodeNumbering<Dim> NodeNumbering<Dim>::build(const Forest<Dim>& forest,
                                             const GhostLayer<Dim>& ghost) {
  std::vector<StaleElem<Dim>> all;
  all.reserve(static_cast<std::size_t>(forest.num_local()));
  forest.for_each_local([&](int t, const Octant<Dim>& o) {
    all.push_back(StaleElem<Dim>{t, o, static_cast<std::int64_t>(all.size())});
  });
  NodeNumbering out = number_stale<Dim>(forest, ghost, all, {});
  sort_gid_keys(out.gid_keys);
  return out;
}

// ---------------------------------------------------------------------------
// Incremental patching (build_incremental): reuse the previous numbering
// outside the delta neighborhood, run the engine only on the stale elements.
// ---------------------------------------------------------------------------

namespace {

/// Invalidation horizon for element re-classification, in same-size
/// insulation rings around each delta octant d. A corner's expansion depends
/// on its touching leaves (<= 1 cell), its masters on the constraining
/// entity of a touching leaf (<= 1 leaf size), and — because the forest is
/// corner-balanced, so the corners of a constraining face/edge are corners
/// of the coarse leaf and cannot themselves hang — the chain stops there:
/// the hazard horizon is <= 2 * size(d), plus one ring of margin for the
/// touching relation being closed-region. The bit-identity battery
/// (test_incremental) pins this bound; a violation is caught at runtime by
/// the invalidated-node check in the gid remap.
constexpr int kNodesRings = 3;

}  // namespace

template <int Dim>
static NodeNumbering<Dim> patch(const Forest<Dim>& forest, const GhostLayer<Dim>& ghost,
                                DeltaSet<Dim>& delta, NodesCache<Dim>& cache) {
  using Oct = Octant<Dim>;
  using Key = typename NodeNumbering<Dim>::Key;
  using Contrib = typename NodeNumbering<Dim>::Contrib;
  constexpr int nc = Topo<Dim>::num_corners;
  par::Comm& comm = forest.comm();
  const Connectivity<Dim>& conn = forest.conn();
  const int me = comm.rank();
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
  // True iff the lattice point lies in the closed delta, in any tree frame.
  const auto point_in_delta = [&](int t, const std::array<std::int32_t, 3>& pt) {
    if (global.contains_point(t, pt)) return true;
    if (any_boundary_region && !NodeClassifier<Dim>::tree_interior(pt)) {
      for (const auto& [t2, p2] : conn.point_images(t, pt)) {
        if (global.contains_point(t2, p2)) return true;
      }
    }
    return false;
  };

  // --- Align new elements against the cached leaf snapshot --------------------
  // An element's row must be rebuilt (stale) iff
  //   (a) one of its corner points lies in the CLOSED delta region, in any
  //       tree frame — a corner's classification depends only on its touching
  //       leaves, and by octree nesting a leaf overlapping a delta octant is
  //       contained in it (the DeltaSet level invariant forbids a coarser
  //       leaf), hence touches the corner only if the corner is on the closed
  //       delta boundary. This also covers every changed leaf itself. Tested
  //       as a closed element-box/region overlap (a region cannot hide
  //       strictly inside an element: nesting would make it a changed
  //       descendant, so box overlap <=> some corner in the closed region up
  //       to face-adjacent contact, a sound over-approximation); or
  //   (b) some corner hung in the cached numbering and the chain's bounding
  //       box touches the delta: a hanging slot stores the transitively
  //       expanded master chain, and every chain node lies in the convex
  //       hull of the final independent masters (each intermediate is inside
  //       the hull of its own entity's corners), so the bbox of {corner,
  //       final master keys} bounds the whole chain. When the finals
  //       canonicalize into another tree frame, or the bbox reaches a tree
  //       boundary while boundary-touching delta regions exist, fall back to
  //       the conservative kNodesRings element-ball.
  // Every other element must exist unchanged in the snapshot.
  std::vector<std::int64_t> old_of(n_local, -1);  // reused: old local index
  std::vector<StaleElem<Dim>> stale;
  const auto old_key_of = [&](std::int64_t g) -> const Key& {
    return (g >= old.owned_offset && g < old.owned_offset + old.num_owned)
               ? old.owned_keys[static_cast<std::size_t>(g - old.owned_offset)]
               : old.key_of(g);
  };
  // Closed-interval overlap of any tree-t delta region with the box [lo, hi].
  const auto delta_box_overlap = [&](int t, const std::array<std::int64_t, 3>& lo,
                                     const std::array<std::int64_t, 3>& hi) {
    for (const Oct& d : global.regions[static_cast<std::size_t>(t)]) {
      bool hit = true;
      for (int a = 0; a < Dim; ++a) {
        const std::int64_t dc = d.coord(a);
        if (dc > hi[static_cast<std::size_t>(a)] || lo[static_cast<std::size_t>(a)] > dc + d.size()) {
          hit = false;
          break;
        }
      }
      if (hit) return true;
    }
    return false;
  };
  {
    std::int64_t li = 0, old_base = 0;
    for (int t = 0; t < forest.num_trees(); ++t) {
      const auto& news = forest.tree(t);
      const auto& olds = cache.leaves[static_cast<std::size_t>(t)];
      std::size_t oi = 0;
      for (const Oct& o : news) {
        // Closed-box overlap of the element with the tree's delta regions is
        // equivalent to "some corner lies in a closed region" up to the
        // face-adjacent neighbors (octant nesting rules out a region hiding
        // strictly inside a leaf) — one linear region scan instead of 2^Dim
        // point probes. Cross-frame corners still need the image walk.
        std::array<std::int64_t, 3> elo{}, ehi{};
        bool on_tree_boundary = false;
        for (int a = 0; a < Dim; ++a) {
          elo[static_cast<std::size_t>(a)] = o.coord(a);
          ehi[static_cast<std::size_t>(a)] = o.coord(a) + o.size();
          on_tree_boundary = on_tree_boundary || o.coord(a) == 0 ||
                             o.coord(a) + o.size() == Oct::root_len;
        }
        bool is_stale = delta_box_overlap(t, elo, ehi);
        if (!is_stale && any_boundary_region && on_tree_boundary) {
          for (int c = 0; c < nc && !is_stale; ++c) {
            const auto cp = o.corner_point(c);
            if (NodeClassifier<Dim>::tree_interior(cp)) continue;
            for (const auto& [t2, p2] : conn.point_images(t, cp)) {
              if (global.contains_point(t2, p2)) {
                is_stale = true;
                break;
              }
            }
          }
        }
        if (!is_stale) {
          while (oi < olds.size() && olds[oi] < o) ++oi;
          if (oi >= olds.size() || !(olds[oi] == o)) {
            throw std::runtime_error("nodes: changed element escaped the delta closure");
          }
          const std::int64_t og = old_base + static_cast<std::int64_t>(oi);
          ++oi;
          for (int c = 0; c < nc && !is_stale; ++c) {
            const auto& slot =
                old.elements[static_cast<std::size_t>(og)][static_cast<std::size_t>(c)];
            if (slot.size() <= 1) continue;  // independent corner: (a) was exact
            const auto cp = o.corner_point(c);
            std::array<std::int64_t, 3> lo{cp[0], cp[1], cp[2]};
            std::array<std::int64_t, 3> hi = lo;
            bool cross = false;
            for (const Contrib& cb : slot) {
              const Key& mk = old_key_of(cb.gid);
              if (mk[0] != t) {
                cross = true;
                break;
              }
              for (int a = 0; a < Dim; ++a) {
                const std::int64_t v = mk[1 + a];
                lo[static_cast<std::size_t>(a)] = std::min(lo[static_cast<std::size_t>(a)], v);
                hi[static_cast<std::size_t>(a)] = std::max(hi[static_cast<std::size_t>(a)], v);
              }
            }
            bool on_boundary = false;
            for (int a = 0; a < Dim && !on_boundary; ++a) {
              on_boundary = lo[static_cast<std::size_t>(a)] <= 0 ||
                            hi[static_cast<std::size_t>(a)] >= Oct::root_len;
            }
            if (cross || (on_boundary && any_boundary_region)) {
              is_stale = global.ball_overlaps(conn, t, o, kNodesRings);
            } else {
              is_stale = delta_box_overlap(t, lo, hi);
            }
          }
          if (!is_stale) old_of[static_cast<std::size_t>(li)] = og;
        }
        if (is_stale) stale.push_back(StaleElem<Dim>{t, o, li});
        ++li;
      }
      old_base += static_cast<std::int64_t>(olds.size());
    }
  }
  ops.nodes_patched += static_cast<std::int64_t>(stale.size());
  ops.nodes_reused += static_cast<std::int64_t>(n_local) - static_cast<std::int64_t>(stale.size());

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
  // key order (subtract invalidated predecessors, add fresh ones), so the
  // remap is strictly increasing: spliced sorted-by-gid contribution lists
  // stay sorted without touching the weights.
  std::vector<Key> removed_eff, added_eff;
  std::set_difference(old.owned_keys.begin(), old.owned_keys.end(), out.owned_keys.begin(),
                      out.owned_keys.end(), std::back_inserter(removed_eff));
  std::set_difference(out.owned_keys.begin(), out.owned_keys.end(), old.owned_keys.begin(),
                      old.owned_keys.end(), std::back_inserter(added_eff));
  const auto removed_all = comm.allgatherv(removed_eff);
  const auto added_all = comm.allgatherv(added_eff);
  // Flat memo indexed by old gid: the fill below touches every reused slot's
  // gids, so the dense array beats a hash map.
  std::vector<std::int64_t> remap_memo(static_cast<std::size_t>(old.num_global), -1);
  const auto remap = [&](std::int64_t g) -> std::int64_t {
    std::int64_t& memo = remap_memo[static_cast<std::size_t>(g)];
    if (memo >= 0) return memo;
    const int r = old.owner_of_gid(g);
    const Key& k = (r == me)
                       ? old.owned_keys[static_cast<std::size_t>(g - old.owned_offset)]
                       : old.key_of(g);
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
    const std::int64_t ol = old_of[li];
    if (ol < 0) continue;
    for (int c = 0; c < nc; ++c) {
      auto& slot = out.elements[li][static_cast<std::size_t>(c)];
      slot = std::move(old.elements[static_cast<std::size_t>(ol)][static_cast<std::size_t>(c)]);
      for (Contrib& cb : slot) cb.gid = remap(cb.gid);
    }
  }
  // gid -> key records: owned + fetched + remap-recorded covers exactly the
  // gids referenced by the element slots, same as a full rebuild.
  sort_gid_keys(out.gid_keys);
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
