#pragma once

/// \file map_assets.hpp
/// \brief One process-wide store for the structures derived from a grid
/// (range-method tables, wall-distance fields, likelihood fields), so every
/// filter, runner and matcher on one map shares one immutable build.
///
/// A structure is keyed by the grid's full content (size, resolution,
/// origin and every cell), its C++ type, a kind tag and its build
/// parameters. A 64-bit content fingerprint only picks candidates; a match
/// is confirmed by an exact comparison against the grid the structure was
/// built from, so a collision can never hand out a table built from other
/// cells. Doubles (resolution, origin, parameters) compare by their bits.
///
/// The store holds weak references only: a structure lives exactly as long
/// as its last consumer, and the next request after that builds it again.
/// Concurrent requests for one key build it once; the others wait for that
/// build and get the same pointer. Builds run outside the store's lock, so
/// a build may request another structure (the likelihood field asks for
/// the wall field) and a long LUT build never stalls a request for a
/// different key. A build that throws hands its exception to every
/// requester waiting on it and leaves no entry behind, so the next request
/// builds again.
///
/// Shared structures must be immutable: every consumer reads the same
/// object, concurrently. Builders therefore return `shared_ptr<const T>`.

#include <functional>
#include <memory>
#include <string>
#include <typeindex>
#include <typeinfo>
#include <utility>
#include <vector>

#include "gridmap/occupancy_grid.hpp"

namespace srl {

/// What a structure is, apart from the grid it is derived from: a kind tag
/// and every build parameter.
struct MapAssetKey {
  std::string kind;
  std::vector<double> params;
};

class MapAssets {
 public:
  /// The structure `key` of type `T` over `map`: the live one when any
  /// consumer still holds it, else `build(map)`. `build` receives the grid
  /// the structure is built from (a structure may keep that pointer). A
  /// build may request other keys, never its own.
  template <typename T, typename Build>
  static std::shared_ptr<const T> get(
      const std::shared_ptr<const OccupancyGrid>& map, MapAssetKey key,
      Build&& build) {
    return std::static_pointer_cast<const T>(get_erased(
        *map, map, typeid(T), std::move(key),
        [&](const std::shared_ptr<const OccupancyGrid>& grid)
            -> std::shared_ptr<const void> {
          return std::shared_ptr<const T>{build(grid)};
        }));
  }

  /// As above for a grid the caller holds by reference: on a miss the store
  /// copies it, and the copy lives as long as the structure (it is what
  /// later requests are compared against).
  template <typename T, typename Build>
  static std::shared_ptr<const T> get(const OccupancyGrid& map,
                                      MapAssetKey key, Build&& build) {
    return std::static_pointer_cast<const T>(get_erased(
        map, nullptr, typeid(T), std::move(key),
        [&](const std::shared_ptr<const OccupancyGrid>& grid)
            -> std::shared_ptr<const void> {
          return std::shared_ptr<const T>{build(grid)};
        }));
  }

 private:
  using ErasedBuild = std::function<std::shared_ptr<const void>(
      const std::shared_ptr<const OccupancyGrid>&)>;

  /// `owner` is null or points at `map`; a miss without an owner copies
  /// the grid.
  static std::shared_ptr<const void> get_erased(
      const OccupancyGrid& map, std::shared_ptr<const OccupancyGrid> owner,
      std::type_index type, MapAssetKey key, const ErasedBuild& build);
};

}  // namespace srl
