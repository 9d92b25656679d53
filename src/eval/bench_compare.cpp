#include "eval/bench_compare.hpp"

#include <cmath>
#include <cstring>
#include <optional>
#include <string_view>
#include <utility>

namespace srl {

namespace {

/// How baseline mode judges a field. Rerun mode holds every field outside
/// `provenance` and each row's `timing` to kExact.
enum class Rule {
  kExact,      ///< may not change
  kAtMost,     ///< candidate <= baseline * (1 + frac) + slack
  kAtLeast,    ///< candidate >= baseline * (1 - frac) - slack
  kKeepTrue,   ///< a flag true in the baseline may not be lost
  kKeepFalse,  ///< a flag false in the baseline may not be lost
};

/// The cross-field conditions a rule may carry, by name.
enum class Guard {
  kAlways,
  /// A crash masks the accuracy rules: binds where neither side crashed.
  kUncrashed,
  /// Binds where both sides recovered, from at least one baseline episode.
  kRecovered,
  /// Binds on governed rows: those whose baseline carries a governor block.
  kGoverned,
  /// Governed cost may rise only with an accuracy gain: binds like
  /// kUncrashed, and a breach passes when `lateral_mean_cm` improved by
  /// at least kErrorGain.
  kErrorGain,
  /// A censored frontier point never broke in range, so its breaking
  /// severity reads as kCensoredSeverity.
  kCensored,
};

constexpr double kErrorGain = 0.05;
constexpr double kCensoredSeverity = 2.0;

struct FieldRule {
  const char* field;  ///< row member; "block.member" reaches into a block
  Rule rule;
  double frac = 0.0;
  double slack = 0.0;
  Guard guard = Guard::kAlways;
  /// Fraction by which a better value earns a "refresh the baseline" note;
  /// 0 = improvements go unremarked.
  double improve = 0.0;
};

/// A rule within the candidate alone: its `stage` row at `threads` lanes
/// may take at most `max_ratio` times the `field` of the same row at one
/// lane (same `simd`, same particle count). It compares no wall clock
/// across machines, binds only where the candidate's
/// `provenance.hardware_threads` reaches `threads`, and rerun mode skips it.
struct LaneScaling {
  const char* stage;
  const char* field;
  int threads;
  double max_ratio;
};

struct Table {
  const char* member;  ///< document member holding the rows
  /// Row key and display name; "{field}" expands to the row's value.
  /// nullptr when the member is one object, named by the member.
  const char* key;
  std::vector<FieldRule> rules{};
  /// Baseline rows whose `simd` is "avx2" are skipped, with a note, when
  /// the candidate host reports `avx2_available: false`.
  bool avx2_rows = false;
  std::optional<LaneScaling> lane_scaling{};
};

struct Policy {
  const char* family;  ///< the schema string before its '/'
  std::vector<Table> tables;
};

// The policy table. Baseline-mode tolerances are for a baseline committed
// from another machine: accuracy gets a fraction plus slack, wall-clock
// latency and rates generous ones, deterministic virtual cost a tight one.
const std::vector<Policy>& policies() {
  static const std::vector<Policy> kPolicies = {
      {"srl.bench_robustness",
       {{"cells",
         "{localizer}/{fault}@{severity}",
         {
             // First, and never masked: a lost recovery fails even when the
             // candidate crashed.
             {"recovery_success", Rule::kKeepTrue},
             // A crash is not a tradeoff. Ungoverned cells may crash anew,
             // since baseline and runner differ in FP environment.
             {"crashed", Rule::kKeepFalse, 0.0, 0.0, Guard::kGoverned},
             {"lateral_mean_cm", Rule::kAtMost, 0.5, 5.0, Guard::kUncrashed},
             {"timing.update_p99_ms", Rule::kAtMost, 4.0, 20.0,
              Guard::kUncrashed},
             {"time_to_reloc_mean_s", Rule::kAtMost, 0.5, 0.5,
              Guard::kRecovered},
             {"governor.cost_units_p99", Rule::kAtMost, 0.1, 2000.0,
              Guard::kErrorGain},
         }},
        {"fault_traces", "fault_traces/{fault}@{severity}"},
        {"governor_headline", nullptr, {{"graceful", Rule::kKeepTrue}}}}},
      {"srl.frontier",
       {{"points",
         "{localizer}/{axis}/{track_class}#{variant}",
         {{"breaking_severity", Rule::kAtLeast, 0.0, 0.0, Guard::kCensored}}}}},
      {"srl.bench_throughput",
       {{"cells",
         "{stage} simd={simd} n={particles} t={threads}",
         {{"beams", Rule::kExact},
          {"timing.items_per_sec", Rule::kAtLeast, 0.8, 0.0, Guard::kAlways,
           0.5}},
         true,
         LaneScaling{"update", "timing.mean_ms", 4, 1.1}}}},
  };
  return kPolicies;
}

const json::Value kNull{};

std::string schema_of(const json::Value& doc) {
  const json::Value* schema = doc.find("schema");
  return schema != nullptr ? schema->as_string() : std::string{};
}

const Policy* find_policy(const std::string& schema) {
  const std::string_view family =
      std::string_view(schema).substr(0, schema.find('/'));
  for (const Policy& policy : policies()) {
    if (family == policy.family) return &policy;
  }
  return nullptr;
}

/// Field lookup by dotted path; nullptr when any step is absent.
const json::Value* lookup(const json::Value& row, std::string_view path) {
  const json::Value* v = &row;
  for (;;) {
    const std::size_t dot = path.find('.');
    v = v->find(std::string(path.substr(0, dot)));
    if (v == nullptr || dot == std::string_view::npos) return v;
    path.remove_prefix(dot + 1);
  }
}

bool truthy(const json::Value* v) {
  if (v == nullptr) return false;
  if (v->is_bool()) return v->as_bool();
  if (v->is_number()) return v->as_double() != 0.0;
  return !v->is_null();
}

std::string text(const json::Value& v) {
  if (v.is_string()) return v.as_string();
  return v.dump(0);
}

struct Row {
  std::string key;  ///< display name
  std::string id;   ///< key plus each key field's kind: 1 never matches "1"
  const json::Value* value;
};

/// The rows of `table` in `doc`, the document named `side`. A member of the
/// wrong shape, a row that is not an object and a key field that is missing
/// or not a string or number are failures in their own right.
std::vector<Row> rows_of(const json::Value& doc, const char* side,
                         const Table& table, CompareReport& report) {
  std::vector<Row> rows;
  const json::Value* member = doc.find(table.member);
  if (member == nullptr) return rows;
  const std::string where = std::string(side) + " " + table.member;
  if (table.key == nullptr) {
    if (member->is_object()) {
      rows.push_back({table.member, table.member, member});
    } else {
      report.failures.push_back({where, "table", {}, {}, "an object"});
    }
    return rows;
  }
  if (!member->is_array()) {
    report.failures.push_back({where, "table", {}, {}, "an array"});
    return rows;
  }
  for (std::size_t i = 0; i < member->size(); ++i) {
    const json::Value& row = *member->at(i);
    const std::string element = where + "[" + std::to_string(i) + "]";
    if (!row.is_object()) {
      report.failures.push_back({element, "row", {}, {}, "an object"});
      continue;
    }
    Row out{{}, {}, &row};
    bool well_formed = true;
    for (const char* p = table.key; *p != '\0'; ++p) {
      const char* close = *p == '{' ? std::strchr(p, '}') : nullptr;
      if (close == nullptr) {
        out.key += *p;
        continue;
      }
      const std::string field(p + 1, close);
      const json::Value* v = row.find(field);
      if (v == nullptr || !(v->is_string() || v->is_number())) {
        report.failures.push_back(
            {element, field, {}, {}, "a string or number key"});
        well_formed = false;
        break;
      }
      out.key += text(*v);
      out.id += v->is_string() ? 's' : 'n';
      p = close;
    }
    if (well_formed) {
      out.id = out.key + '\n' + out.id;
      rows.push_back(std::move(out));
    }
  }
  return rows;
}

const Row* find_row(const std::vector<Row>& rows, const Row& like) {
  for (const Row& row : rows) {
    if (row.id == like.id) return &row;
  }
  return nullptr;
}

bool listed(const std::vector<const char*>& fields, const std::string& field) {
  for (const char* f : fields) {
    if (field == f) return true;
  }
  return false;
}

/// Report every leaf where `a` and `b` differ. At the top level, `skip`
/// names members left out.
void diff(const std::string& cell, const std::string& path,
          const json::Value& a, const json::Value& b,
          const std::vector<const char*>& skip, CompareReport& report) {
  const std::string prefix = path.empty() ? path : path + ".";
  if (a.is_object() && b.is_object()) {
    for (const auto& [name, value] : a.members()) {
      if (listed(skip, name)) continue;
      const json::Value* other = b.find(name);
      diff(cell, prefix + name, value, other != nullptr ? *other : kNull, {},
           report);
    }
    for (const auto& [name, value] : b.members()) {
      if (!listed(skip, name) && a.find(name) == nullptr) {
        diff(cell, prefix + name, kNull, value, {}, report);
      }
    }
    return;
  }
  if (a.is_array() && b.is_array() && a.size() == b.size()) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      diff(cell, path + "[" + std::to_string(i) + "]", *a.at(i), *b.at(i), {},
           report);
    }
    return;
  }
  if (a.dump(0) != b.dump(0)) {
    report.failures.push_back({cell, path, a, b, "unchanged"});
  }
}

bool guard_holds(Guard guard, const json::Value& base,
                 const json::Value& cand) {
  switch (guard) {
    case Guard::kAlways:
    case Guard::kCensored:
      return true;
    case Guard::kUncrashed:
    case Guard::kErrorGain:
      return !truthy(base.find("crashed")) && !truthy(cand.find("crashed"));
    case Guard::kRecovered:
      return truthy(base.find("recovery_success")) &&
             truthy(cand.find("recovery_success")) &&
             truthy(base.find("recoveries"));
    case Guard::kGoverned:
      return base.find("governor") != nullptr;
  }
  return true;
}

/// The field as its rule reads it: a censored point breaks at 2.0.
double read(const FieldRule& rule, const json::Value& row,
            const json::Value& field) {
  if (rule.guard == Guard::kCensored && truthy(row.find("censored"))) {
    return kCensoredSeverity;
  }
  return field.as_double();
}

bool error_gained(const json::Value& base, const json::Value& cand) {
  const json::Value* b = base.find("lateral_mean_cm");
  const json::Value* c = cand.find("lateral_mean_cm");
  return b != nullptr && c != nullptr && b->is_number() && c->is_number() &&
         c->as_double() < b->as_double() * (1.0 - kErrorGain);
}

/// "<cell>: <field> <baseline> -> <candidate>, <remark>"; the values are
/// left out when neither side has one.
std::string note(const CompareFailure& f, const std::string& remark) {
  std::string out = f.cell + ": " + f.metric;
  if (!f.baseline.is_null() || !f.candidate.is_null()) {
    out += " " + text(f.baseline) + " -> " + text(f.candidate);
  }
  return out + ", " + remark;
}

void judge(const FieldRule& rule, const std::string& cell,
           const json::Value& base_row, const json::Value& cand_row,
           CompareReport& report) {
  const json::Value* b = lookup(base_row, rule.field);
  if (b == nullptr) return;  // an older baseline: no opinion
  const json::Value* c = lookup(cand_row, rule.field);
  if (c == nullptr) {
    // A renamed or dropped field must not silently stop being gated.
    report.failures.push_back({cell, rule.field, *b, {}, "in the candidate"});
    return;
  }
  if (!guard_holds(rule.guard, base_row, cand_row)) return;

  switch (rule.rule) {
    case Rule::kExact:
      if (b->dump(0) != c->dump(0)) {
        report.failures.push_back({cell, rule.field, *b, *c, "unchanged"});
      }
      return;
    case Rule::kKeepTrue:
    case Rule::kKeepFalse: {
      if (!b->is_bool() || !c->is_bool()) {
        report.failures.push_back({cell, rule.field, *b, *c, "a boolean"});
        return;
      }
      const bool kept = rule.rule == Rule::kKeepTrue;
      if (b->as_bool() == kept && c->as_bool() != kept) {
        report.failures.push_back(
            {cell, rule.field, *b, *c, kept ? "true" : "false"});
      }
      return;
    }
    case Rule::kAtMost:
    case Rule::kAtLeast:
      break;
  }

  if (!b->is_number() || !c->is_number()) {
    report.failures.push_back({cell, rule.field, *b, *c, "a number"});
    return;
  }
  const double bv = read(rule, base_row, *b);
  const double cv = read(rule, cand_row, *c);
  const bool upper = rule.rule == Rule::kAtMost;
  const double limit = upper ? bv * (1.0 + rule.frac) + rule.slack
                             : bv * (1.0 - rule.frac) - rule.slack;
  const CompareFailure breach{
      cell, rule.field, json::Value::number(bv), json::Value::number(cv),
      (upper ? "<= " : ">= ") + json::format_number(limit)};
  if (upper ? cv <= limit : cv >= limit) {
    const bool improved =
        rule.improve > 0.0 && (upper ? cv < bv * (1.0 - rule.improve)
                                     : cv > bv * (1.0 + rule.improve));
    if (improved) {
      report.notes.push_back(
          note(breach, "improved; consider refreshing the baseline"));
    }
  } else if (rule.guard == Guard::kErrorGain &&
             error_gained(base_row, cand_row)) {
    report.notes.push_back(note(breach, "traded for a lateral_mean_cm gain"));
  } else {
    report.failures.push_back(breach);
  }
}

bool same_text(const json::Value& a, const json::Value& b, const char* field) {
  const json::Value* x = a.find(field);
  const json::Value* y = b.find(field);
  return x != nullptr && y != nullptr && x->dump(0) == y->dump(0);
}

double number_of(const json::Value& row, const char* field) {
  const json::Value* v = lookup(row, field);
  return v != nullptr && v->is_number() ? v->as_double() : -1.0;
}

void judge_lane_scaling(const LaneScaling& rule, const json::Value& candidate,
                        const std::vector<Row>& rows, CompareReport& report) {
  // Pair each wide row with its one-lane row.
  std::vector<std::pair<const Row*, const Row*>> pairs;
  for (const Row& wide : rows) {
    const json::Value& w = *wide.value;
    const json::Value* stage = w.find("stage");
    if (stage == nullptr || stage->as_string() != rule.stage ||
        number_of(w, "threads") != rule.threads) {
      continue;
    }
    for (const Row& one : rows) {
      const json::Value& o = *one.value;
      if (number_of(o, "threads") == 1.0 && same_text(o, w, "stage") &&
          same_text(o, w, "simd") && same_text(o, w, "particles")) {
        pairs.emplace_back(&wide, &one);
      }
    }
  }
  if (pairs.empty()) return;
  const json::Value* hw = lookup(candidate, "provenance.hardware_threads");
  if (hw == nullptr || !hw->is_number() || hw->as_double() < rule.threads) {
    report.notes.push_back(
        "lane scaling not judged on " + std::to_string(pairs.size()) + " t=" +
        std::to_string(rule.threads) + " rows: " +
        (hw != nullptr ? "the candidate host has " + text(*hw) +
                             " hardware threads"
                       : "the candidate records no hardware_threads"));
    return;
  }
  for (const auto& [wide, one] : pairs) {
    const double w = number_of(*wide->value, rule.field);
    const double o = number_of(*one->value, rule.field);
    const double limit = rule.max_ratio * o;
    if (!(w <= limit)) {
      report.failures.push_back(
          {wide->key, rule.field, json::Value::number(o),
           json::Value::number(w),
           "<= " + json::format_number(limit) + " (" +
               json::format_number(rule.max_ratio) + " x its t=1 row)"});
    }
  }
}

}  // namespace

std::string CompareFailure::describe() const {
  return note(*this, "expected " + expected);
}

std::optional<CompareReport> compare_artifacts(const json::Value& baseline,
                                               const json::Value& candidate,
                                               GateMode mode,
                                               std::string& error) {
  const std::string base_schema = schema_of(baseline);
  const std::string cand_schema = schema_of(candidate);
  const Policy* policy = find_policy(base_schema);
  if (policy == nullptr || find_policy(cand_schema) != policy) {
    error = "no common artifact family: baseline schema '" + base_schema +
            "', candidate schema '" + cand_schema + "'";
    return std::nullopt;
  }

  // One walk over the policy's tables: both modes pair rows by key; rerun
  // mode diffs each pair and wants no extra rows, baseline mode judges
  // each pair by the table's rules.
  const bool rerun = mode == GateMode::kRerun;
  const bool candidate_has_avx2 = truthy(candidate.find("avx2_available"));
  int skipped_avx2 = 0;
  std::vector<const char*> document_skip = {"provenance"};
  CompareReport report;
  for (const Table& table : policy->tables) {
    document_skip.push_back(table.member);
    const std::vector<Row> base_rows =
        rows_of(baseline, "baseline", table, report);
    const std::vector<Row> cand_rows =
        rows_of(candidate, "candidate", table, report);
    for (const Row& base : base_rows) {
      const Row* cand = find_row(cand_rows, base);
      if (cand == nullptr) {
        // A scalar-only host cannot produce the avx2 rows; its scalar rows
        // still gate, so shrinkage stays visible.
        const json::Value* simd = base.value->find("simd");
        if (!rerun && table.avx2_rows && !candidate_has_avx2 &&
            simd != nullptr && simd->as_string() == "avx2") {
          ++skipped_avx2;
        } else {
          report.failures.push_back(
              {base.key, "row", {}, {}, "in the candidate"});
        }
        continue;
      }
      ++report.rows_compared;
      if (rerun) {
        diff(base.key, "", *base.value, *cand->value, {"timing"}, report);
        continue;
      }
      for (const FieldRule& rule : table.rules) {
        judge(rule, base.key, *base.value, *cand->value, report);
      }
    }
    for (const Row& cand : cand_rows) {
      if (rerun && find_row(base_rows, cand) == nullptr) {
        report.failures.push_back(
            {cand.key, "row", {}, {}, "in the baseline"});
      }
    }
    if (!rerun && table.lane_scaling) {
      judge_lane_scaling(*table.lane_scaling, candidate, cand_rows, report);
    }
  }
  // Everything outside provenance and the tables is document-level.
  if (rerun) diff("document", "", baseline, candidate, document_skip, report);
  if (skipped_avx2 > 0) {
    report.notes.push_back(std::to_string(skipped_avx2) +
                           " avx2 baseline rows skipped: the candidate host "
                           "lacks AVX2");
  }
  // A gate that judged nothing must not pass: an empty or renamed table
  // would otherwise wave every regression through.
  if (report.rows_compared == 0) {
    report.failures.push_back(
        {"document", "rows", {}, {}, "at least one in common"});
  }
  return report;
}

}  // namespace srl
