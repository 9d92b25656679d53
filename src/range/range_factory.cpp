#include "gridmap/map_assets.hpp"
#include "range/bresenham.hpp"
#include "range/cddt.hpp"
#include "range/lookup_table.hpp"
#include "range/range_method.hpp"
#include "range/ray_marching.hpp"

namespace srl {

std::string to_string(RangeMethodKind kind) {
  switch (kind) {
    case RangeMethodKind::kBresenham:
      return "bresenham";
    case RangeMethodKind::kRayMarching:
      return "ray_marching";
    case RangeMethodKind::kCddt:
      return "cddt";
    case RangeMethodKind::kLut:
      return "lut";
  }
  return "unknown";
}

std::unique_ptr<RangeMethod> make_range_method(
    RangeMethodKind kind, std::shared_ptr<const OccupancyGrid> map,
    const RangeMethodOptions& options) {
  switch (kind) {
    case RangeMethodKind::kBresenham:
      return std::make_unique<BresenhamCaster>(std::move(map),
                                               options.max_range);
    case RangeMethodKind::kRayMarching:
      return std::make_unique<RayMarching>(std::move(map), options.max_range);
    case RangeMethodKind::kCddt:
      return std::make_unique<Cddt>(std::move(map), options.max_range,
                                    options.cddt_theta_bins);
    case RangeMethodKind::kLut:
      return std::make_unique<RangeLut>(std::move(map), options.max_range,
                                        options.lut_theta_bins);
  }
  return nullptr;
}

std::shared_ptr<const RangeMethod> shared_range_method(
    RangeMethodKind kind, std::shared_ptr<const OccupancyGrid> map,
    const RangeMethodOptions& options) {
  // The key carries exactly what the kind's constructor reads.
  MapAssetKey key{to_string(kind), {options.max_range}};
  if (kind == RangeMethodKind::kCddt) {
    key.params.push_back(options.cddt_theta_bins);
  } else if (kind == RangeMethodKind::kLut) {
    key.params.push_back(options.lut_theta_bins);
  }
  return MapAssets::get<RangeMethod>(
      map, std::move(key),
      [&](const std::shared_ptr<const OccupancyGrid>& grid) {
        return make_range_method(kind, grid, options);
      });
}

}  // namespace srl
