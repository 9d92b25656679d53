#include "gridmap/map_assets.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <exception>
#include <future>
#include <list>
#include <mutex>

#include "common/fnv1a.hpp"

namespace srl {
namespace {

/// What a consumer's pointer owns: the structure and the grid it was built
/// from, which later requests are compared against.
struct Held {
  std::shared_ptr<const OccupancyGrid> grid;
  std::shared_ptr<const void> value;
};

using PendingBuild = std::shared_future<std::shared_ptr<const Held>>;

struct Entry {
  std::uint64_t fingerprint;
  std::type_index type;
  MapAssetKey key;
  /// While the structure is being built: the grid it is built from and the
  /// build's result, which concurrent requesters wait on. Both are cleared
  /// once the structure is published into `held`.
  std::shared_ptr<const OccupancyGrid> building_grid;
  PendingBuild building;
  std::weak_ptr<const Held> held;
};

struct Store {
  std::mutex mutex;
  /// A list, so the builder's iterator to its entry survives other inserts
  /// and erasures while the build runs unlocked.
  std::list<Entry> entries;
};

Store& store() {
  static Store s;
  return s;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_content(const OccupancyGrid& a, const OccupancyGrid& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         same_bits(a.resolution(), b.resolution()) &&
         same_bits(a.origin().x, b.origin().x) &&
         same_bits(a.origin().y, b.origin().y) && a.data() == b.data();
}

bool same_key(const Entry& e, std::uint64_t fingerprint, std::type_index type,
              const MapAssetKey& key) {
  return e.fingerprint == fingerprint && e.type == type &&
         e.key.kind == key.kind &&
         std::equal(e.key.params.begin(), e.key.params.end(),
                    key.params.begin(), key.params.end(), same_bits);
}

/// Size, resolution, origin and every cell. The cells fold eight at a time
/// through a multiply-xorshift step: the fingerprint only picks candidates
/// (an exact comparison confirms them), so it needs spread, not strength.
std::uint64_t fingerprint(const OccupancyGrid& map) {
  std::uint64_t h = kFnv1aOffset;
  h = fnv1a(h, map.width());
  h = fnv1a(h, map.height());
  h = fnv1a(h, map.resolution());
  h = fnv1a(h, map.origin().x);
  h = fnv1a(h, map.origin().y);
  const std::vector<std::int8_t>& cells = map.data();
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= cells.size();
       i += sizeof(std::uint64_t)) {
    std::uint64_t word = 0;
    std::memcpy(&word, cells.data() + i, sizeof word);
    h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  }
  return fnv1a_bytes(h, cells.data() + i, cells.size() - i);
}

/// The consumer's pointer: it owns the holder and points at the structure.
std::shared_ptr<const void> value_of(const std::shared_ptr<const Held>& held) {
  return {held, held->value.get()};
}

}  // namespace

std::shared_ptr<const void> MapAssets::get_erased(
    const OccupancyGrid& map, std::shared_ptr<const OccupancyGrid> owner,
    std::type_index type, MapAssetKey key, const ErasedBuild& build) {
  const std::uint64_t fp = fingerprint(map);
  Store& s = store();
  std::promise<std::shared_ptr<const Held>> promise;
  std::list<Entry>::iterator mine;
  {
    std::unique_lock lock{s.mutex};
    for (auto it = s.entries.begin(); it != s.entries.end();) {
      if (it->building.valid()) {
        if (same_key(*it, fp, type, key) &&
            same_content(*it->building_grid, map)) {
          const PendingBuild pending = it->building;
          lock.unlock();
          return value_of(pending.get());  // rethrows a failed build
        }
        ++it;
        continue;
      }
      const std::shared_ptr<const Held> held = it->held.lock();
      if (held == nullptr) {
        it = s.entries.erase(it);  // its last consumer is gone
        continue;
      }
      if (same_key(*it, fp, type, key) && same_content(*held->grid, map)) {
        return value_of(held);
      }
      ++it;
    }
    if (owner == nullptr) owner = std::make_shared<const OccupancyGrid>(map);
    mine = s.entries.insert(
        s.entries.end(), Entry{fp, type, std::move(key), owner,
                               promise.get_future().share(), {}});
  }

  std::shared_ptr<const Held> held;
  try {
    held = std::make_shared<const Held>(Held{owner, build(owner)});
  } catch (...) {
    {
      const std::lock_guard lock{s.mutex};
      s.entries.erase(mine);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  {
    const std::lock_guard lock{s.mutex};
    mine->held = held;
    mine->building = {};
    mine->building_grid.reset();
  }
  promise.set_value(held);
  return value_of(held);
}

}  // namespace srl
