#include "eval/frontier/frontier_json.hpp"

#include "eval/artifact.hpp"

namespace srl::frontier {

namespace {

json::Value evaluation_to_json(const FrontierEvaluation& eval) {
  json::Value v = json::Value::object();
  v.set("index", json::Value::number(static_cast<double>(eval.index)));
  v.set("severity", json::Value::number(eval.severity));
  v.set("failed", json::Value::boolean(eval.failed));
  v.set("crashed", json::Value::boolean(eval.crashed));
  v.set("divergence_episodes",
        json::Value::number(static_cast<double>(eval.divergence_episodes)));
  v.set("recoveries",
        json::Value::number(static_cast<double>(eval.recoveries)));
  v.set("lateral_mean_cm", json::Value::number(eval.lateral_mean_cm));
  v.set("final_pose_error_m", json::Value::number(eval.final_pose_error_m));
  return v;
}

json::Value point_to_json(const FrontierPoint& point) {
  json::Value v = json::Value::object();
  v.set("localizer", json::Value::string(point.localizer));
  v.set("axis", json::Value::string(point.axis));
  v.set("track_class", json::Value::string(point.track_class));
  v.set("variant", json::Value::number(static_cast<double>(point.variant)));
  v.set("censored", json::Value::boolean(point.censored));
  v.set("degenerate", json::Value::boolean(point.degenerate));
  v.set("breaking_severity", json::Value::number(point.breaking_severity));
  v.set("bracket_lo", json::Value::number(point.bracket_lo));
  v.set("bracket_hi", json::Value::number(point.bracket_hi));
  v.set("breaking_index",
        json::Value::number(static_cast<double>(point.breaking_index)));
  v.set("track_length_m", json::Value::number(point.track_length_m));
  v.set("track_max_abs_curvature",
        json::Value::number(point.track_max_abs_curvature));
  json::Value evals = json::Value::array();
  for (const FrontierEvaluation& eval : point.evaluations) {
    evals.push_back(evaluation_to_json(eval));
  }
  v.set("evaluations", std::move(evals));
  json::Value boxes = json::Value::array();
  for (const std::string& path : point.blackboxes) {
    boxes.push_back(json::Value::string(path));
  }
  v.set("blackboxes", std::move(boxes));
  return v;
}

}  // namespace

json::Value frontier_to_json(const FrontierDocument& doc) {
  json::Value prov = doc.provenance;
  prov.set("scenario_seed",
           json::Value::string(json::format_hex64(doc.result.seed)));
  prov.set("fault_seed",
           json::Value::string(json::format_hex64(doc.result.fault_seed)));
  prov.set("bisect_iterations",
           json::Value::number(
               static_cast<double>(doc.result.bisect_iterations)));
  prov.set("n_particles",
           json::Value::number(static_cast<double>(doc.result.n_particles)));
  prov.set("variant",
           json::Value::number(static_cast<double>(doc.result.variant)));
  json::Value root = artifact(kFrontierSchema, std::move(prov));

  json::Value points = json::Value::array();
  for (const FrontierPoint& point : doc.result.points) {
    points.push_back(point_to_json(point));
  }
  root.set("points", std::move(points));

  if (doc.headline) {
    const FrontierHeadline& fh = *doc.headline;
    json::Value h = json::Value::object();
    h.set("axis", json::Value::string(fh.axis));
    h.set("track_class", json::Value::string(fh.track_class));
    h.set("synpf_breaking", json::Value::number(fh.synpf_breaking));
    h.set("synpf_bracket_width", json::Value::number(fh.synpf_bracket_width));
    h.set("synpf_censored", json::Value::boolean(fh.synpf_censored));
    h.set("carto_breaking", json::Value::number(fh.carto_breaking));
    h.set("carto_bracket_width", json::Value::number(fh.carto_bracket_width));
    h.set("carto_censored", json::Value::boolean(fh.carto_censored));
    h.set("synpf_exceeds", json::Value::boolean(fh.synpf_exceeds()));
    root.set("headline", std::move(h));
  }
  return root;
}

}  // namespace srl::frontier
