#include "eval/throughput_json.hpp"

#include "common/fnv1a.hpp"
#include "eval/artifact.hpp"

namespace srl {

std::uint64_t estimates_hash(std::span<const Pose2> estimates) {
  std::uint64_t h = kFnv1aOffset;
  for (const Pose2& p : estimates) {
    h = fnv1a(h, p.x);
    h = fnv1a(h, p.y);
    h = fnv1a(h, p.theta);
  }
  return h;
}

json::Value throughput_to_json(const ThroughputDocument& doc) {
  json::Value root = artifact(kBenchThroughputSchema, doc.provenance);
  root.set("simd_active", json::Value::string(doc.simd_active));
  root.set("avx2_available", json::Value::boolean(doc.avx2_available));
  root.set("n_scans", json::Value::number(doc.n_scans));
  root.set("determinism_hash",
           json::Value::string(json::format_hex64(doc.determinism_hash)));

  json::Value cells = json::Value::array();
  for (const ThroughputCell& cell : doc.cells) {
    json::Value c = json::Value::object();
    c.set("stage", json::Value::string(cell.stage));
    c.set("simd", json::Value::string(cell.simd));
    c.set("particles", json::Value::number(cell.particles));
    c.set("threads", json::Value::number(cell.threads));
    c.set("beams", json::Value::number(cell.beams));
    json::Value timing = json::Value::object();
    timing.set("mean_ms", json::Value::number(cell.mean_ms));
    timing.set("items_per_sec", json::Value::number(cell.items_per_sec));
    c.set("timing", std::move(timing));
    c.set("hash", json::Value::string(json::format_hex64(cell.hash)));
    cells.push_back(std::move(c));
  }
  root.set("cells", std::move(cells));
  return root;
}

}  // namespace srl
