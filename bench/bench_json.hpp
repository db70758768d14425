// Shared Google-Benchmark JSON emission for the table-style bench binaries
// (ablation_overlap, ablation_drift, cluster_scaling, ablation_fastmm).
//
// The binaries print human tables; --json FILE additionally emits the
// minimal Google-Benchmark document tools/compare_bench.py gates on: one
// iteration row per entry with the virtual seconds as real_time/cpu_time,
// plus optional extra numeric counters on the row (latency percentiles,
// shed fractions, ...) gated per-metric via compare_bench.py --metric.
// Everything emitted here is modeled/virtual time, so committed baselines
// (bench/BENCH_*.json) reproduce bit-for-bit and CI gates at tight ratios.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

namespace summagen::benchjson {

/// One benchmark row: `seconds` is the headline metric (lower is better);
/// `counters` adds named numeric fields to the row.
struct JsonEntry {
  std::string name;
  double seconds = 0.0;
  std::vector<std::pair<std::string, double>> counters;

  JsonEntry() = default;
  JsonEntry(std::string name_in, double seconds_in)
      : name(std::move(name_in)), seconds(seconds_in) {}
  JsonEntry(std::string name_in, double seconds_in,
            std::vector<std::pair<std::string, double>> counters_in)
      : name(std::move(name_in)),
        seconds(seconds_in),
        counters(std::move(counters_in)) {}
};

/// Writes the document; exits 2 when the file cannot be opened (the bench
/// was asked for a JSON artifact and silently skipping it would let a CI
/// gate pass vacuously).
inline void write_json(const std::string& path, const std::string& executable,
                       const std::vector<JsonEntry>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open --json file '" << path << "'\n";
    std::exit(2);
  }
  out << "{\n  \"context\": {\"executable\": \"" << executable << "\"},\n"
      << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << "    {\"name\": \"" << rows[i].name
        << "\", \"run_type\": \"iteration\", \"iterations\": 1, "
        << "\"real_time\": " << rows[i].seconds
        << ", \"cpu_time\": " << rows[i].seconds << ", \"time_unit\": \"s\"";
    for (const auto& [key, value] : rows[i].counters) {
      out << ", \"" << key << "\": " << value;
    }
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace summagen::benchjson
