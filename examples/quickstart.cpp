// Quickstart: multiply two matrices with SummaGen on the simulated
// three-device heterogeneous node, verify against the reference product,
// and print the timing/energy breakdown.
//
//   $ ./quickstart [--n 512] [--shape square_corner]
#include <cstring>
#include <iostream>

#include "src/core/runner.hpp"
#include "src/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace summagen;
  const util::Cli cli(argc, argv);

  core::ExperimentConfig config;
  config.platform = device::Platform::hclserver1();
  config.n = cli.get_int("n", 512);
  config.regime = core::Regime::kConstant;
  config.cpm_speeds = {1.0, 2.0, 0.9};  // the paper's Figure-5 readout
  config.numeric = true;                // really multiply + verify
  config.record_events = true;          // enables the energy model

  const std::string shape = cli.get("shape", "square_corner");
  for (partition::Shape s : partition::all_shapes()) {
    if (shape == partition::shape_name(s)) config.shape = s;
  }

  std::cout << "SummaGen quickstart on " << config.platform.name << "\n"
            << "  N = " << config.n << ", shape = "
            << partition::shape_name(config.shape) << ", speeds = {1.0, 2.0, "
            << "0.9}\n\n";

  const core::ExperimentResult res = core::run_pmm(config);

  std::cout << "Partition layout (1 char = " << config.n / 16 << "x"
            << config.n / 16 << " elements):\n"
            << res.spec.render(std::max<std::int64_t>(1, config.n / 16))
            << "\n";
  std::cout << "areas: ";
  for (std::size_t r = 0; r < res.areas.size(); ++r) {
    std::cout << "P" << r << "=" << res.areas[r] << " ";
  }
  std::cout << "\nsum of half-perimeters (comm volume metric): "
            << res.total_half_perimeter << "\n\n";

  std::cout << "modeled parallel execution time: " << res.exec_time_s
            << " s\n"
            << "  computation (max rank): " << res.comp_time_s << " s\n"
            << "  MPI communication (max rank): " << res.comm_time_s
            << " s\n"
            << "  speed: " << res.tflops << " TFLOPs\n";
  if (res.has_energy) {
    std::cout << "  dynamic energy: " << res.energy.dynamic_j << " J\n";
  }
  std::cout << "\nnumeric verification vs reference: "
            << (res.verified ? "PASSED" : "FAILED")
            << " (max |error| = " << res.max_abs_error << ")\n";
  return res.verified ? 0 : 1;
}
