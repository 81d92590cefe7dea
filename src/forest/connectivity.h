// Connectivity: the static macro-level of a forest of octrees (paper §II-B/D).
//
// A forest domain is a collection of K logical cubes ("trees"), each with its
// own right-handed coordinate system placed arbitrarily in space, connected
// conformingly through faces, edges (3D), and corners. Every face connection
// carries an integer lattice isometry (signed axis permutation + translation)
// that maps exterior octants of one tree into the coordinate system of the
// neighbor tree (paper Fig. 3); edge and corner connections carry the reduced
// information needed to place constraint/ghost shadows in all sharing trees.
//
// The macro structure is tiny, static, and replicated on every rank; the
// octants themselves (micro-level) are strictly distributed (see forest.h).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "forest/octant.h"

namespace esamr::forest {

/// Integer lattice isometry y = S.P x + t: target axis j reads source axis
/// perm[j], multiplied by sign[j] (+-1), plus offset off[j]. Applied to
/// lattice points; octants are transformed corner-wise (a reflection moves
/// the lower corner to the image of the upper corner).
struct CoordXform {
  std::array<std::int8_t, 3> perm{0, 1, 2};
  std::array<std::int8_t, 3> sign{1, 1, 1};
  std::array<std::int64_t, 3> off{0, 0, 0};

  std::array<std::int64_t, 3> apply_point(std::array<std::int64_t, 3> p) const {
    std::array<std::int64_t, 3> q{};
    for (int j = 0; j < 3; ++j) q[j] = static_cast<std::int64_t>(sign[j]) * p[perm[j]] + off[j];
    return q;
  }

  CoordXform inverse() const {
    CoordXform inv;
    for (int j = 0; j < 3; ++j) {
      const int i = perm[j];
      inv.perm[i] = static_cast<std::int8_t>(j);
      inv.sign[i] = sign[j];
      inv.off[i] = -static_cast<std::int64_t>(sign[j]) * off[j];
    }
    return inv;
  }

  /// Transform an octant: map lower and upper corner, take the component-wise
  /// minimum as the image's lower corner. Level is preserved (isometry).
  template <int Dim>
  Octant<Dim> apply_octant(const Octant<Dim>& o) const {
    const std::int64_t h = o.size();
    const std::array<std::int64_t, 3> lo{o.x, o.y, Dim == 3 ? o.z : 0};
    std::array<std::int64_t, 3> hi{lo[0] + h, lo[1] + h, Dim == 3 ? lo[2] + h : 0};
    const auto a = apply_point(lo);
    const auto b = apply_point(hi);
    Octant<Dim> out;
    out.level = o.level;
    out.x = static_cast<std::int32_t>(a[0] < b[0] ? a[0] : b[0]);
    out.y = static_cast<std::int32_t>(a[1] < b[1] ? a[1] : b[1]);
    if constexpr (Dim == 3) out.z = static_cast<std::int32_t>(a[2] < b[2] ? a[2] : b[2]);
    return out;
  }

  friend bool operator==(const CoordXform&, const CoordXform&) = default;
};

/// Macro mesh description used to build a Connectivity: per-tree corner
/// vertex ids in z-order plus optional explicit face identifications
/// (periodicity), where `corner_map[i]` says which corner of face1 matches
/// corner i of face0.
template <int Dim>
struct MacroMesh {
  static constexpr int ncorners = Topo<Dim>::num_corners;
  static constexpr int face_size = Topo<Dim>::corners_per_face;

  std::vector<std::array<double, 3>> vertex_coords;  // geometry only (viz / maps)
  std::vector<std::array<int, ncorners>> tree_to_vertex;

  struct FaceIdent {
    int tree0, face0, tree1, face1;
    std::array<int, face_size> corner_map;
  };
  std::vector<FaceIdent> identifications;
};

/// Static inter-tree connectivity, replicated on all ranks.
template <int Dim>
class Connectivity {
 public:
  using Oct = Octant<Dim>;
  using T = Topo<Dim>;

  struct FaceConn {
    int tree = -1;  ///< neighbor tree, or -1 at a physical boundary
    int face = -1;  ///< neighbor's face index
    CoordXform xform;  ///< maps my coordinates into the neighbor's system
  };
  struct EdgeConn {
    int tree;
    int edge;
    bool flip;  ///< true if the along-edge coordinate reverses
  };
  struct CornerConn {
    int tree;
    int corner;
  };

  /// Build from a macro mesh; derives face/edge/corner connections and
  /// transforms from shared (or identified) vertex ids. Throws on
  /// non-manifold faces or inconsistent identifications.
  static Connectivity build(const MacroMesh<Dim>& mesh);

  int num_trees() const { return static_cast<int>(face_conn_.size()); }

  const FaceConn& face_connection(int tree, int face) const {
    return face_conn_[static_cast<std::size_t>(tree)][static_cast<std::size_t>(face)];
  }
  /// All other incidences sharing the macro edge of (tree, edge), including
  /// face-adjacent trees and other edges of the same tree (self-periodicity).
  std::span<const EdgeConn> edge_connections(int tree, int edge) const {
    return edge_conn_[static_cast<std::size_t>(tree)][static_cast<std::size_t>(edge)];
  }
  /// All other incidences sharing the macro corner of (tree, corner).
  std::span<const CornerConn> corner_connections(int tree, int corner) const {
    return corner_conn_[static_cast<std::size_t>(tree)][static_cast<std::size_t>(corner)];
  }

  /// Map an exterior octant position `n` (a same-level neighbor of some
  /// octant of `tree` that left the root domain) into every connected tree:
  /// returns interior (tree', octant') shadow positions. Positions crossing
  /// a physical boundary yield no images.
  std::vector<std::pair<int, Oct>> exterior_images(int tree, const Oct& n) const;

  /// A boundary entity of an octant given by per-axis pins:
  /// -1 = free axis, 0 = pinned at the low side, 1 = pinned at the high side.
  /// One pin = face, two = edge, all = corner.
  struct EntityPins {
    std::array<std::int8_t, 3> pin{-1, -1, -1};
  };

  /// Like exterior_images, but additionally transforms a boundary entity of
  /// `n` (e.g. the interface through which `n` touches its originating
  /// octant) into each target tree's frame.
  std::vector<std::tuple<int, Oct, EntityPins>> exterior_images_entity(int tree, const Oct& n,
                                                                       EntityPins pins) const;

  /// A lattice point in some tree frame: (tree, point).
  using PointImage = std::pair<int, std::array<std::int32_t, 3>>;

  /// Map a lattice point on the boundary of `tree` into every other
  /// connected tree. Used for canonical node numbering. Does not include
  /// the identity image; may include other images within the same tree
  /// (self-periodicity). Sorted and deduplicated.
  std::vector<PointImage> point_images(int tree, std::array<std::int32_t, 3> p) const {
    std::vector<PointImage> images;
    point_images(tree, p, images);
    return images;
  }
  /// The same images written into `images` (cleared first): a caller that
  /// reuses the buffer allocates nothing once it holds a point's images.
  void point_images(int tree, std::array<std::int32_t, 3> p, std::vector<PointImage>& images) const;

  /// Consistency checks (mutual connections, involutive transforms, corner
  /// incidence symmetry). Throws std::runtime_error on failure.
  void validate() const;

  // Geometry of the macro mesh (for visualization and geometric maps only;
  // never used in topological logic).
  const std::vector<std::array<double, 3>>& vertex_coords() const { return vertex_coords_; }
  const std::vector<std::array<int, T::num_corners>>& tree_to_vertex() const {
    return tree_to_vertex_;
  }

  // --- Standard builders ---------------------------------------------------

  /// Single tree, all-boundary (the unit square / cube).
  static Connectivity unit();
  /// nx x ny (x nz) grid of trees, optionally periodic per axis.
  /// Periodic axes require at least two trees along that axis.
  static Connectivity brick(std::array<int, Dim> n, std::array<bool, Dim> periodic);
  /// 2D only: ring of `ntrees` quadtrees closed with a half-twist — the
  /// periodic Moebius strip of paper Fig. 1 (top).
  static Connectivity moebius(int ntrees)
    requires(Dim == 2);
  /// 2D only: ring of `ntrees` quadtrees (x = angular, y = radial), closed
  /// periodically — the annulus macro mesh for the mantle example.
  static Connectivity ring(int ntrees)
    requires(Dim == 2);
  /// 3D only: six octrees with mutually rotated coordinate systems, five of
  /// which connect through a central axis — the weak-scaling forest of paper
  /// Fig. 1 (bottom) / Fig. 4.
  static Connectivity rotcubes()
    requires(Dim == 3);
  /// 3D only: spherical-shell macro mesh of 6 caps x 4 = 24 octrees (the
  /// cubed-sphere decomposition used in paper §III-B and §IV).
  static Connectivity shell()
    requires(Dim == 3);

 private:
  std::vector<std::array<FaceConn, 2 * Dim>> face_conn_;
  std::vector<std::array<std::vector<EdgeConn>, Dim == 3 ? 12 : 1>> edge_conn_;
  std::vector<std::array<std::vector<CornerConn>, T::num_corners>> corner_conn_;
  std::vector<std::array<double, 3>> vertex_coords_;
  std::vector<std::array<int, T::num_corners>> tree_to_vertex_;
};

extern template class Connectivity<2>;
extern template class Connectivity<3>;

}  // namespace esamr::forest
