// postmortem — render a flight-recorder black box (srl.blackbox/1) as a
// human-readable timeline, and optionally re-drive the captured sensor
// stream through a freshly rebuilt localizer stack to reproduce the episode
// bitwise.
//
// Usage:
//   postmortem <blackbox.json>              render provenance + timeline
//   postmortem <blackbox.json> --replay     also replay; exit 1 on hash
//                                           mismatch
//   postmortem <blackbox.json> --replay --threads N
//                                           replay at N filter lanes (the
//                                           hash must not change)

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "common/knobs.hpp"
#include "eval/postmortem.hpp"

int main(int argc, char** argv) {
  std::string path;
  bool do_replay = false;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--replay") {
      do_replay = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      const std::optional<std::uint64_t> n =
          srl::parse_uint(argv[++i], 0, std::numeric_limits<int>::max());
      if (!n) {
        std::fprintf(stderr, "--threads: '%s' is not an integer in [0, %d]\n",
                     argv[i], std::numeric_limits<int>::max());
        return 2;
      }
      threads = static_cast<int>(*n);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: postmortem <blackbox.json> [--replay] [--threads N]\n");
      return 0;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: postmortem <blackbox.json> [--replay] [--threads N]\n");
    return 2;
  }

  std::string error;
  const std::optional<srl::Blackbox> box = srl::load_blackbox(path, &error);
  if (!box.has_value()) {
    std::fprintf(stderr, "failed to load black box %s: %s\n", path.c_str(),
                 error.c_str());
    return 2;
  }
  std::fputs(srl::render_timeline(*box).c_str(), stdout);

  if (!do_replay) return 0;

  std::printf("\nreplaying captured stream (%s threads)...\n",
              threads > 0 ? std::to_string(threads).c_str() : "recorded");
  const srl::PostmortemReplay replay = srl::replay_blackbox(*box, threads);
  if (!replay.ok) {
    std::fprintf(stderr, "replay failed: %s\n", replay.error.c_str());
    return 2;
  }
  std::printf("replayed   : %" PRIu64 " ticks, estimate_hash 0x%016" PRIx64
              "\n",
              replay.ticks, replay.estimate_hash);
  if (replay.bitwise_match) {
    std::printf("verdict    : BITWISE MATCH — episode reproduced\n");
    return 0;
  }
  std::printf("verdict    : MISMATCH — %s\n", replay.error.c_str());
  return 1;
}
