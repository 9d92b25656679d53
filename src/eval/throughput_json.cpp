#include "eval/throughput_json.hpp"

#include "common/fnv1a.hpp"

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
  json::Value root = json::Value::object();
  root.set("schema", json::Value::string(kBenchThroughputSchema));

  json::Value provenance = json::Value::object();
  provenance.set("compiler", json::Value::string(doc.provenance.compiler));
  provenance.set("build", json::Value::string(doc.provenance.build));
  provenance.set("git_sha", json::Value::string(doc.provenance.git_sha));
  provenance.set("seed",
                 json::Value::number(static_cast<double>(doc.provenance.seed)));
  provenance.set("laps", json::Value::number(doc.provenance.laps));
  provenance.set("hardware_threads",
                 json::Value::number(doc.provenance.hardware_threads));
  provenance.set("fast_mode", json::Value::boolean(doc.provenance.fast_mode));
  root.set("provenance", std::move(provenance));

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
    c.set("mean_ms", json::Value::number(cell.mean_ms));
    c.set("items_per_sec", json::Value::number(cell.items_per_sec));
    c.set("hash", json::Value::string(json::format_hex64(cell.hash)));
    cells.push_back(std::move(c));
  }
  root.set("cells", std::move(cells));
  return root;
}

bool write_throughput_json(const std::string& path,
                           const ThroughputDocument& doc) {
  return throughput_to_json(doc).save(path);
}

}  // namespace srl
