/// \file bench_fig1_motion_models.cpp
/// \brief Reproduces **Fig. 1** of the paper: pose clouds generated by the
/// classical diff-drive odometry model vs the TUM speed-adaptive model, at
/// low speed (left panel: the models agree) and at racing speed (right
/// panel: the TUM model accounts for the reduced steering capacity).
///
/// For each (model, speed) cell we propagate N particles through one
/// odometry step and report the dispersion of the resulting cloud plus the
/// fraction of *infeasible* samples — poses whose implied path curvature
/// exceeds the car's physical envelope kappa_max(v). An ASCII histogram of
/// the heading distribution visualizes the "banana vs ellipse" contrast.

#include <cstdlib>
#include <iostream>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "eval/table.hpp"
#include "motion/diff_drive.hpp"
#include "motion/tum_model.hpp"

namespace {

struct CloudReport {
  double along_sigma;
  double lateral_sigma;
  double heading_sigma;
  double infeasible_frac;
  srl::Histogram heading_hist{-0.25, 0.25, 21};
};

CloudReport sample(const srl::MotionModel& model, double v, double dt,
                   int n, std::uint64_t seed) {
  using namespace srl;
  CloudReport report{0, 0, 0, 0};
  Rng rng{seed};
  OdometryDelta odom;
  odom.delta = Pose2{v * dt, 0.0, 0.0};  // straight-line odometry step
  odom.v = v;
  odom.dt = dt;

  const AckermannParams ack;
  const double trans = v * dt;
  const double envelope = max_curvature(ack, v) * trans;

  RunningStats along;
  RunningStats lateral;
  std::vector<double> headings;
  int infeasible = 0;
  for (int i = 0; i < n; ++i) {
    const Pose2 out = model.sample(Pose2{}, odom, rng);
    along.add(out.x);
    lateral.add(out.y);
    headings.push_back(out.theta);
    report.heading_hist.add(out.theta);
    if (std::abs(out.theta) > envelope + 1e-9) ++infeasible;
  }
  report.along_sigma = along.stddev();
  report.lateral_sigma = lateral.stddev();
  report.heading_sigma = circular_stddev(headings);
  report.infeasible_frac = static_cast<double>(infeasible) / n;
  return report;
}

}  // namespace

int main() {
  using namespace srl;
  const int n = 20000;
  const double dt = 0.05;  // one prediction step

  const DiffDriveModel diff;
  const TumMotionModel tum;

  std::cout << "bench_fig1_motion_models: Fig. 1 reproduction (" << n
            << " samples per cloud, dt = " << dt << " s)\n\n";

  TextTable table{{"Model", "v [m/s]", "sigma_along [m]", "sigma_lat [m]",
                   "sigma_heading [rad]", "infeasible [%]"}};

  struct Cell {
    const MotionModel* model;
    double v;
    CloudReport report;
  };
  std::vector<Cell> cells;
  std::uint64_t seed = 1;
  for (const double v : {0.5, 7.0}) {
    for (const MotionModel* model :
         {static_cast<const MotionModel*>(&diff),
          static_cast<const MotionModel*>(&tum)}) {
      cells.push_back({model, v, sample(*model, v, dt, n, seed++)});
    }
  }
  for (const Cell& c : cells) {
    table.add_row({c.model->name(), TextTable::num(c.v, 1),
                   TextTable::num(c.report.along_sigma, 4),
                   TextTable::num(c.report.lateral_sigma, 4),
                   TextTable::num(c.report.heading_sigma, 4),
                   TextTable::num(100.0 * c.report.infeasible_frac, 1)});
  }
  std::cout << table.render() << "\n";

  // The paper's two panels as heading histograms.
  for (const Cell& c : cells) {
    std::cout << c.model->name() << " @ " << c.v
              << " m/s heading distribution [rad]:\n"
              << c.report.heading_hist.ascii(40) << "\n";
  }

  // Headline checks (printed, not asserted — this is a bench).
  const double diff_low = cells[0].report.heading_sigma;
  const double tum_low = cells[1].report.heading_sigma;
  const double diff_high = cells[2].report.heading_sigma;
  const double tum_high = cells[3].report.heading_sigma;
  std::cout << "heading-sigma ratio tum/diff at 0.5 m/s: "
            << TextTable::num(tum_low / diff_low, 2)
            << " (paper: models nearly identical)\n";
  std::cout << "heading-sigma ratio tum/diff at 7.0 m/s: "
            << TextTable::num(tum_high / diff_high, 2)
            << " (paper: TUM much tighter)\n";
  return 0;
}
