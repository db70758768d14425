// Ablation: communication/computation overlap of the task-graph scheduler.
//
// The paper's SummaGen runs its phases strictly in sequence, so every
// rank's time is comm + comp. The kTaskGraph scheduler posts the panel
// broadcasts non-blocking and executes the dependency graph
// dataflow-style, running whichever DGEMM k-chunk is ready while
// broadcasts complete in collective order. This ablation sweeps the four
// paper shapes x broadcast panel rows x overlap depth on a
// communication-bound fabric (beta scaled up so the broadcasts are worth
// hiding) and reports the eager baseline, the overlapped time, the hidden
// communication cost, and the saving.
//
// Gates (exit 1 on violation):
//  * every shape has >= 1 configuration where the task graph strictly
//    beats eager while moving exactly the same broadcast bytes;
//  * a small numeric run (--verify-n) cross-checks that the overlapped
//    scheduler still verifies against the reference product.
//
// Flags: --n 2048  --beta-scale 200  --panel-rows 0,64,512
//        --depths 1,2,0  --verify-n 128  --json FILE (Google-Benchmark
//        JSON for tools/compare_bench.py, see bench/BENCH_overlap.json)
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "src/core/runner.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

namespace {

summagen::core::ExperimentConfig base_config(std::int64_t n,
                                             summagen::partition::Shape shape,
                                             double beta_scale) {
  summagen::core::ExperimentConfig config;
  config.platform = summagen::device::Platform::hclserver1();
  config.platform.mpi_link.beta_s_per_byte *= beta_scale;
  config.n = n;
  config.shape = shape;
  config.regime = summagen::core::Regime::kConstant;
  config.cpm_speeds = {1.0, 2.0, 0.9};
  return config;
}

std::int64_t total_bcast_bytes(const summagen::core::ExperimentResult& res) {
  std::int64_t bytes = 0;
  for (const auto& rep : res.reports) bytes += rep.bcast_bytes;
  return bytes;
}

using summagen::benchjson::JsonEntry;

}  // namespace

int main(int argc, char** argv) {
  using namespace summagen;
  const util::Cli cli(argc, argv);
  const std::int64_t n = cli.get_int("n", 2048);
  const double beta_scale = cli.get_double("beta-scale", 200.0);
  const auto panel_rows = cli.get_int_list("panel-rows", {0, 64, 512});
  const auto depths = cli.get_int_list("depths", {1, 2, 0});
  const std::int64_t verify_n = cli.get_int("verify-n", 128);
  const bool csv = cli.get_bool("csv", false);

  const auto& shapes = partition::all_shapes();

  util::Table t("Overlap ablation, CPM, N=" + std::to_string(n) +
                ", beta x" + util::Table::num(beta_scale, 0));
  t.set_header({"shape", "panel", "depth", "eager_s", "taskgraph_s",
                "hidden_s", "saving_%"});

  // The acceptance bar: on this communication-bound fabric every paper
  // shape must have at least one configuration where the task graph is
  // strictly faster while moving exactly the same broadcast bytes.
  std::map<partition::Shape, bool> shape_wins;
  std::vector<JsonEntry> json_rows;
  for (auto shape : shapes) {
    shape_wins[shape] = false;
    for (std::int64_t panel : panel_rows) {
      core::ExperimentConfig config = base_config(n, shape, beta_scale);
      config.summagen_options.bcast_panel_rows = panel;
      const auto eager = core::run_pmm(config);

      for (std::int64_t depth : depths) {
        config.summagen_options.overlap_depth = static_cast<int>(depth);
        config.summagen_options.scheduler = core::Scheduler::kTaskGraph;
        const auto taskgraph = core::run_pmm(config);
        config.summagen_options.scheduler = core::Scheduler::kEager;

        const double saving =
            100.0 * (eager.exec_time_s - taskgraph.exec_time_s) /
            eager.exec_time_s;
        if (taskgraph.exec_time_s < eager.exec_time_s &&
            total_bcast_bytes(taskgraph) == total_bcast_bytes(eager)) {
          shape_wins[shape] = true;
        }
        const std::string key =
            std::string("overlap/") + partition::shape_name(shape) +
            "/panel" + std::to_string(panel) + "/depth" +
            std::to_string(depth);
        json_rows.push_back({key + "/eager", eager.exec_time_s});
        json_rows.push_back({key + "/taskgraph", taskgraph.exec_time_s});
        t.add_row({partition::shape_name(shape),
                   panel == 0 ? "whole" : std::to_string(panel),
                   depth == 0 ? "inf" : std::to_string(depth),
                   util::Table::num(eager.exec_time_s, 3),
                   util::Table::num(taskgraph.exec_time_s, 3),
                   util::Table::num(taskgraph.hidden_comm_time_s, 3),
                   util::Table::num(saving, 1)});
      }
    }
  }
  if (csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }

  bool all_shapes_win = true;
  std::cout << "\nStrict win (same broadcast bytes) per shape:\n";
  for (auto shape : shapes) {
    all_shapes_win = all_shapes_win && shape_wins[shape];
    std::cout << "  " << partition::shape_name(shape) << ": "
              << (shape_wins[shape] ? "yes" : "NO") << "\n";
  }

  // Numeric cross-check at small n: the overlap must not change C.
  std::cout << "\nNumeric verification (N=" << verify_n << "):\n";
  bool all_verified = true;
  for (auto shape : shapes) {
    core::ExperimentConfig config = base_config(verify_n, shape, beta_scale);
    config.numeric = true;
    config.summagen_options.bcast_panel_rows = 32;
    const auto eager = core::run_pmm(config);
    config.summagen_options.scheduler = core::Scheduler::kTaskGraph;
    const auto taskgraph = core::run_pmm(config);
    const bool ok = eager.verified && taskgraph.verified &&
                    total_bcast_bytes(taskgraph) == total_bcast_bytes(eager);
    all_verified = all_verified && ok;
    std::cout << "  " << partition::shape_name(shape)
              << ": verified=" << (ok ? "yes" : "NO")
              << " max_abs_error=" << taskgraph.max_abs_error << "\n";
  }

  if (cli.has("json")) {
    benchjson::write_json(cli.get("json", ""), "ablation_overlap", json_rows);
  }
  return all_shapes_win && all_verified ? 0 : 1;
}
