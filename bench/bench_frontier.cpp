/// \file bench_frontier.cpp
/// \brief The robustness-frontier search (DESIGN.md §14): for every
/// {localizer × fault-axis × track-class} combination, bracket-and-bisect
/// severity to the first unrecovered divergence and serialize the measured
/// failure boundary to the machine-readable `BENCH_frontier.json` that
/// `tools/bench_compare` gates CI on.
///
/// This is the paper's headline restated as a *boundary* instead of a
/// sampled grid: SynPF's slip-axis breaking severity strictly exceeds
/// CartoLite's (often censored — no failure inside the modeled range at
/// all), each stated with its final bisection bracket.
///
/// Usage: bench_frontier [output.json]
///   SRL_FAST=1          smoke budget (2 localizers x 3 axes, 3 bisections)
///   SRL_GIT_SHA         recorded into provenance when set
///   SRL_BLACKBOX_DIR=d  black-box artifact directory for frontier-defining
///                       failures (default "blackbox"; "" = recorder off)

#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "eval/artifact.hpp"
#include "eval/frontier/frontier_json.hpp"
#include "eval/frontier/frontier_search.hpp"
#include "eval/table.hpp"

int main(int argc, char** argv) {
  using namespace srl;
  using namespace srl::benchutil;
  using namespace srl::frontier;

  const std::string out_file =
      argc > 1 ? argv[1] : out_path("BENCH_frontier.json");

  FrontierSearchConfig config;
  if (fast_mode()) {
    config = FrontierSearchConfig::smoke();
  } else {
    for (int a = 0; a < static_cast<int>(frontier_axes().size()); ++a) {
      config.axes.push_back(a);
    }
    config.track_classes = {0, 1, 2};
    config.bisect_iterations = 5;  // bracket width 1/32 severity
    config.experiment.laps = 2;
    config.experiment.max_sim_time = 90.0;
  }
  const char* bb_dir = std::getenv("SRL_BLACKBOX_DIR");
  config.blackbox_dir = bb_dir != nullptr ? bb_dir : "blackbox";

  const int n_axes = config.axes.empty()
                         ? static_cast<int>(frontier_axes().size())
                         : static_cast<int>(config.axes.size());
  std::cout << "bench_frontier: " << config.localizers.size()
            << " localizers x " << n_axes << " axes x "
            << config.track_classes.size() << " track classes, "
            << config.bisect_iterations << " bisections"
            << (fast_mode() ? " (smoke budget)" : "")
            << (config.blackbox_dir.empty()
                    ? " [recorder off]"
                    : " [defining failures -> " + config.blackbox_dir + "]")
            << "\n";

  FrontierDocument doc;
  doc.result = run_frontier_search(config);

  TextTable table{{"localizer", "axis", "class", "frontier", "bracket",
                   "probes", "max lat [cm]", "boxes"}};
  for (const FrontierPoint& point : doc.result.points) {
    std::string frontier;
    if (point.censored) {
      frontier = "> 1.00 (censored)";
    } else if (point.degenerate) {
      frontier = "0.00 (degenerate)";
    } else {
      frontier = TextTable::num(point.breaking_severity, 4);
    }
    std::string bracket{"-"};
    if (!point.censored) {
      bracket = "[";
      bracket += TextTable::num(point.bracket_lo, 4);
      bracket += ", ";
      bracket += TextTable::num(point.bracket_hi, 4);
      bracket += "]";
    }
    double max_lat = 0.0;
    for (const FrontierEvaluation& eval : point.evaluations) {
      if (!eval.crashed) max_lat = std::max(max_lat, eval.lateral_mean_cm);
    }
    table.add_row({point.localizer, point.axis, point.track_class, frontier,
                   bracket, std::to_string(point.evaluations.size()),
                   TextTable::num(max_lat, 2),
                   std::to_string(point.blackboxes.size())});
  }
  std::cout << "\n" << table.render();

  FrontierHeadline headline;
  if (compute_frontier_headline(doc.result, "odom_slip_ramp",
                                frontier_track_classes()[0], headline)) {
    doc.headline = headline;
    auto describe = [](double breaking, double width, bool censored) {
      if (censored) return std::string{"censored (no failure <= 1.0)"};
      return TextTable::num(breaking, 4) + " +- " + TextTable::num(width, 4);
    };
    std::cout << "\nfrontier headline (odom_slip_ramp, "
              << headline.track_class << " class): SynPF breaks at "
              << describe(headline.synpf_breaking, headline.synpf_bracket_width,
                          headline.synpf_censored)
              << ", CartoLite at "
              << describe(headline.carto_breaking, headline.carto_bracket_width,
                          headline.carto_censored)
              << "\n";
    std::cout << (headline.synpf_exceeds()
                      ? "paper shape reproduced: SynPF's slip frontier "
                        "strictly exceeds CartoLite's\n"
                      : "WARNING: frontier headline NOT reproduced\n");
  }

  doc.provenance = artifact_provenance(fast_mode());
  if (!frontier_to_json(doc).save(out_file)) {
    std::cerr << "FAILED to write " << out_file << "\n";
    return 1;
  }
  std::cout << "wrote " << out_file << "\n";
  return 0;
}
