// Ablation: cost of surviving faults with shrink-and-repartition recovery.
//
// For each paper shape the bench runs the fault-free baseline, then the
// same problem with (a) a rank crash at 40% of the baseline execution time
// and (b) a 4x compute slowdown of the same rank at the same instant. Both
// interrupting faults unwind the survivors, who agree on the failure
// (Comm::shrink), re-partition the unfinished C area over the remaining
// (or degraded) devices, and re-execute only the lost work.
//
// Acceptance bar: on every shape the crash run must finish in less than
// --max-overhead (default 2.0) times the fault-free time — i.e. losing a
// device mid-run costs less than starting over — and a small numeric run
// with a mid-phase crash must still verify against the reference product.
//
// Flags: --n 2048  --victim 1  --slow-factor 4  --max-overhead 2.0
//        --verify-n 192
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/runner.hpp"
#include "src/mpi/faults.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

namespace {

summagen::core::ExperimentConfig base_config(std::int64_t n,
                                             summagen::partition::Shape shape) {
  summagen::core::ExperimentConfig config;
  config.platform = summagen::device::Platform::hclserver1();
  config.n = n;
  config.shape = shape;
  config.regime = summagen::core::Regime::kConstant;
  config.cpm_speeds = {1.0, 2.0, 0.9};
  return config;
}

summagen::sgmpi::FaultPlan one_event(summagen::sgmpi::FaultKind kind,
                                     int rank, double at, double factor) {
  summagen::sgmpi::FaultEvent ev;
  ev.kind = kind;
  ev.rank = rank;
  ev.at_vtime = at;
  ev.factor = factor;
  return summagen::sgmpi::FaultPlan{{ev}};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace summagen;
  const util::Cli cli(argc, argv);
  const std::int64_t n = cli.get_int("n", 2048);
  const int victim = static_cast<int>(cli.get_int("victim", 1));
  const double slow_factor = cli.get_double("slow-factor", 4.0);
  const double max_overhead = cli.get_double("max-overhead", 2.0);
  const std::int64_t verify_n = cli.get_int("verify-n", 192);
  const bool csv = cli.get_bool("csv", false);

  const auto& shapes = partition::all_shapes();

  util::Table t("Fault ablation, CPM, N=" + std::to_string(n) +
                ", victim rank " + std::to_string(victim));
  t.set_header({"shape", "fault", "time_s", "overhead_x", "recoveries",
                "redistributed", "detect_s"});

  bool within_budget = true;
  for (auto shape : shapes) {
    const auto clean = core::run_pmm(base_config(n, shape));
    const double t0 = clean.exec_time_s;
    t.add_row({partition::shape_name(shape), "none",
               util::Table::num(t0, 4), "1.00", "0", "0", "-"});

    struct Case {
      const char* name;
      sgmpi::FaultKind kind;
      double factor;
    };
    const Case cases[] = {
        {"crash", sgmpi::FaultKind::kCrash, 1.0},
        {"slow", sgmpi::FaultKind::kSlowdown, slow_factor},
    };
    for (const Case& c : cases) {
      core::ExperimentConfig config = base_config(n, shape);
      config.faults = one_event(c.kind, victim, 0.4 * t0, c.factor);
      // Detection latency proportional to the run, as a real failure
      // detector's timeout would be to its heartbeat period.
      config.fault_detect_s = 0.02 * t0;
      const auto res = core::run_pmm(config);
      const double overhead = res.exec_time_s / t0;
      if (c.kind == sgmpi::FaultKind::kCrash && overhead >= max_overhead) {
        within_budget = false;
      }
      t.add_row({partition::shape_name(shape), c.name,
                 util::Table::num(res.exec_time_s, 4),
                 util::Table::num(overhead, 2),
                 std::to_string(res.recoveries),
                 util::Table::num(res.redistributed_area),
                 util::Table::num(res.detection_latency_s, 4)});
    }
  }
  if (csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }

  std::cout << "\nCrash overhead < " << util::Table::num(max_overhead, 2)
            << "x fault-free on every shape: "
            << (within_budget ? "yes" : "NO") << "\n";

  // Numeric cross-check: a mid-phase crash must leave C exactly equal to
  // the reference product (survivors recompute all lost cells).
  std::cout << "\nNumeric verification (N=" << verify_n << "):\n";
  bool all_verified = true;
  for (auto shape : shapes) {
    core::ExperimentConfig probe = base_config(verify_n, shape);
    probe.numeric = true;
    const double t0 = core::run_pmm(probe).exec_time_s;

    core::ExperimentConfig config = probe;
    config.faults = one_event(sgmpi::FaultKind::kCrash, victim, 0.4 * t0, 1.0);
    config.fault_detect_s = 0.02 * t0;
    const auto res = core::run_pmm(config);
    const bool ok = res.verified && res.recoveries >= 1;
    all_verified = all_verified && ok;
    std::cout << "  " << partition::shape_name(shape)
              << ": verified=" << (ok ? "yes" : "NO")
              << " recoveries=" << res.recoveries
              << " redistributed=" << res.redistributed_area << "\n";
  }
  return within_budget && all_verified ? 0 : 1;
}
