#include "eval/artifact.hpp"

#include <cstdlib>
#include <string>
#include <utility>

namespace srl {

json::Value artifact_provenance(bool fast_mode) {
#if defined(__clang__)
  const std::string compiler = "clang " + std::to_string(__clang_major__) +
                               "." + std::to_string(__clang_minor__) + "." +
                               std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  const std::string compiler = "gcc " + std::to_string(__GNUC__) + "." +
                               std::to_string(__GNUC_MINOR__) + "." +
                               std::to_string(__GNUC_PATCHLEVEL__);
#else
  const std::string compiler = "unknown";
#endif
#ifdef NDEBUG
  const char* build = "release";
#else
  const char* build = "debug";
#endif
  const char* sha = std::getenv("SRL_GIT_SHA");
  json::Value provenance = json::Value::object();
  provenance.set("compiler", json::Value::string(compiler));
  provenance.set("build", json::Value::string(build));
  provenance.set("git_sha", json::Value::string(sha != nullptr ? sha : ""));
  provenance.set("fast_mode", json::Value::boolean(fast_mode));
  return provenance;
}

json::Value artifact(const char* schema, json::Value provenance) {
  json::Value doc = json::Value::object();
  doc.set("schema", json::Value::string(schema));
  doc.set("provenance", std::move(provenance));
  return doc;
}

}  // namespace srl
