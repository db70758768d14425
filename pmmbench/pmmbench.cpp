// pmmbench: end-to-end and per-layer benchmark of the SummaGen runner.
//
// One process runs one workload in a closed loop (one run_pmm call at a
// time) and prints a human-readable report followed by one JSON line that
// pmmbench/run.py turns into the benchmark result. The library is a black
// box: only public entry points are called (core::run_pmm, core::plan_pmm,
// core::build_plan, core::reference_multiply, blas::dgemm,
// util::fill_random, partition::*, sgmpi::Runtime, sgpool::Pool).
//
//   pmmbench --workload W --seed S --seconds T --trace 0|1
//            [--offset K] [--small] [--trace-out FILE]
//
// Each process times its untimed warm-up call (set-up), then calls
// run_pmm in a closed loop for T seconds, starting one configuration past
// --offset. --trace 0 records no spans. --trace 1 interleaves untraced
// calls with traced sequences whose spans the benchmark records around
// each call into a module, keeps in memory and writes as Chrome-trace JSON
// to --trace-out when the run ends. --small shrinks every size for the
// self-test.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/blas/gemm.hpp"
#include "src/blas/simd.hpp"
#include "src/blas/tune.hpp"
#include "src/core/plan.hpp"
#include "src/core/reference.hpp"
#include "src/core/runner.hpp"
#include "src/mpi/mpi.hpp"
#include "src/partition/areas.hpp"
#include "src/partition/nrrp.hpp"
#include "src/pool/pool.hpp"
#include "src/util/accounting.hpp"
#include "src/util/matrix.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace summagen;
using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;
/// Address-space cap of the modeled workload: a host-memory blow-up
/// surfaces as std::bad_alloc (a failed call) instead of an OOM kill.
constexpr rlim_t kModeledAddressSpace = rlim_t{4} << 30;
/// Lognormal sigma of the modeled kernel-time noise. Its seed comes from
/// the workload seed, so the virtual makespan is exact per seed yet
/// differs between seeds.
constexpr double kNoiseSigma = 0.02;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// JSON number with all its digits.
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// JSON string literal (control characters blanked).
std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch >= 0 && ch < 0x20 ? ' ' : ch;
  }
  return out + "\"";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int offset = 0;  ///< configuration of the warm-up; the loop follows it
  bool small = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
      return argv[++i];
    };
    if (key == "--workload") {
      args.workload = value();
    } else if (key == "--seed") {
      args.seed = std::stoull(value());
    } else if (key == "--seconds") {
      args.seconds = std::stod(value());
    } else if (key == "--trace") {
      args.trace = value() != "0";
    } else if (key == "--trace-out") {
      args.trace_out = value();
    } else if (key == "--offset") {
      args.offset = std::stoi(value());
    } else if (key == "--small") {
      args.small = true;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload missing");
  return args;
}

// ---------------------------------------------------------------------------
// Workloads

/// One configuration of a workload; `cluster_nodes > 0` marks the modeled
/// cluster, whose partition (CPM areas -> NRRP) is part of each call.
struct Case {
  std::string label;
  core::ExperimentConfig config;
  int cluster_nodes = 0;
};

std::vector<Case> make_workload(const Args& args) {
  const partition::Shape shapes[] = {
      partition::Shape::kSquareCorner, partition::Shape::kSquareRectangle,
      partition::Shape::kBlockRectangle, partition::Shape::kOneDimensional};
  std::vector<Case> cases;
  if (args.workload == "numeric-whole" ||
      args.workload == "numeric-panelled") {
    const bool panelled = args.workload == "numeric-panelled";
    for (partition::Shape shape : shapes) {
      Case c;
      c.label = partition::shape_name(shape);
      core::ExperimentConfig& cfg = c.config;
      cfg.platform = device::Platform::hclserver1();
      cfg.shape = shape;
      cfg.numeric = true;
      if (panelled) {
        cfg.n = args.small ? 256 : 1024;
        cfg.regime = core::Regime::kFunctional;
        cfg.summagen_options.scheduler = core::Scheduler::kTaskGraph;
        cfg.summagen_options.bcast_panel_rows = args.small ? 32 : 64;
      } else {
        cfg.n = args.small ? 256 : 2048;
        cfg.regime = core::Regime::kConstant;
        cfg.cpm_speeds = {1.0, 2.0, 0.9};
        cfg.summagen_options.scheduler = core::Scheduler::kEager;
      }
      cases.push_back(std::move(c));
    }
  } else if (args.workload == "modeled-cluster") {
    Case c;
    c.cluster_nodes = args.small ? 8 : 128;
    c.label = "nrrp-" + std::to_string(c.cluster_nodes) + "x-hclserver1";
    core::ExperimentConfig& cfg = c.config;
    cfg.platform = device::Platform::cluster(
        device::Platform::hclserver1(), c.cluster_nodes,
        trace::HockneyParams{20.0e-6, 1.0 / 12.5e9});
    cfg.n = args.small ? 3072 : 30720;
    cfg.engine = sgmpi::Engine::kModeled;
    cfg.bcast_algo = trace::BcastAlgo::kTree;
    cases.push_back(std::move(c));
  } else {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    cases[i].config.noise_sigma = kNoiseSigma;
    cases[i].config.noise_seed = util::derive_seed(args.seed, 1000 + i);
  }
  return cases;
}

/// Partition step of the modeled cluster: CPM areas of the paper's
/// per-node speeds, laid out by the non-rectangular recursive partitioner.
partition::PartitionSpec cluster_spec(const Case& c) {
  std::vector<double> speeds;
  for (int node = 0; node < c.cluster_nodes; ++node) {
    speeds.insert(speeds.end(), {1.0, 2.0, 0.9});
  }
  const std::int64_t n = c.config.n;
  return partition::nrrp_partition(
      n, partition::partition_areas_cpm(n * n, speeds));
}

// ---------------------------------------------------------------------------
// Calls, correctness and tracing

struct Span {
  std::string name;
  std::string layer;
  double start_us = 0.0;
  double dur_us = 0.0;
  std::string label;
  int call = 0;
};

class Recorder {
 public:
  explicit Recorder(Clock::time_point origin) : origin_(origin) {}

  /// Times `fn`, keeps the span in memory, returns its duration (s).
  double span(const std::string& name, const std::string& layer,
              const std::string& label, int call,
              const std::function<void()>& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    const auto us = [this](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    spans_.push_back({name, layer, us(t0), us(t1) - us(t0), label, call});
    return std::chrono::duration<double>(t1 - t0).count();
  }

  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"name\":" << quoted(s.name) << ",\"cat\":" << quoted(s.layer)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << num(s.start_us)
          << ",\"dur\":" << num(s.dur_us) << ",\"args\":{\"config\":"
          << quoted(s.label) << ",\"call\":" << s.call << "}}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Per-workload bookkeeping of attempted calls and the checks they failed.
struct Ledger {
  int attempted = 0;
  int failed = 0;
  double max_abs_error = 0.0;
  std::map<std::size_t, double> vmakespan;  ///< first exec_time_s per case
  std::vector<std::string> problems;

  void fail(const std::string& what) {
    ++failed;
    if (problems.size() < 8) problems.push_back(what);
  }
};

/// Checks one call's result: numeric calls must verify, and every
/// repetition of a case must reproduce the case's virtual makespan bit for
/// bit (virtual time is deterministic).
bool check_result(const Case& c, std::size_t index,
                  const core::ExperimentResult& res, Ledger& ledger) {
  if (c.config.numeric) {
    ledger.max_abs_error = std::max(ledger.max_abs_error, res.max_abs_error);
    if (!res.verified) {
      ledger.fail(c.label + ": C failed verification (max_abs_error " +
                  num(res.max_abs_error) + ")");
      return false;
    }
  }
  const auto [it, first] = ledger.vmakespan.emplace(index, res.exec_time_s);
  if (!first && it->second != res.exec_time_s) {
    ledger.fail(c.label + ": virtual makespan " + num(res.exec_time_s) +
                " differs from the first repetition's " + num(it->second));
    return false;
  }
  return true;
}

/// One timed call: the partition step (modeled cluster only) plus
/// run_pmm. Exceptions — including std::bad_alloc under the address-space
/// cap — count as failed calls.
bool run_call(const Case& c, std::size_t index, std::uint64_t call_seed,
              Ledger& ledger) {
  ++ledger.attempted;
  try {
    core::ExperimentConfig cfg = c.config;
    cfg.seed = call_seed;
    if (c.cluster_nodes > 0) cfg.preset_spec = cluster_spec(c);
    return check_result(c, index, core::run_pmm(cfg), ledger);
  } catch (const std::exception& e) {
    ledger.fail(c.label + ": " + e.what());
    return false;
  }
}

/// Sums of per-layer quantities over the traced calls; reported as means
/// per traced call.
struct LayerTotals {
  int calls = 0;
  double untraced_pmm_s = 0.0;
  double traced_pmm_s = 0.0;
  double fill_s = 0.0;
  double plan_s = 0.0;
  double verify_s = 0.0;
  double kernel_s = 0.0;
  double spawn_s = 0.0;
  double flops = 0.0;
  double pack_lookups = 0.0;
  double pack_hits = 0.0;
  double sched_lookups = 0.0;
  double sched_hits = 0.0;
  double bcasts = 0.0;
  double bcast_bytes = 0.0;
  double comm_vs = 0.0;
  double comp_vs = 0.0;
  double idle_vs = 0.0;
  double hidden_vs = 0.0;
  double half_perimeter = 0.0;
  double allocs = 0.0;
  double alloc_bytes = 0.0;
  double copy_bytes = 0.0;
  double pool_acquires = 0.0;
  double pool_hits = 0.0;
  double pool_peak_bytes = 0.0;
  double pool_tasks = 0.0;
  double pool_steals = 0.0;
  double threads_spawned = 0.0;
  int replay_pool_workers = 0;
};

/// The pool size run_pmm picks for this case (it reserves one thread per
/// rank, or the single scheduler thread of the modeled engine).
int runner_pool_workers(const core::ExperimentConfig& cfg) {
  const int reserved = cfg.engine == sgmpi::Engine::kModeled
                           ? 1
                           : cfg.platform.nprocs();
  return sgpool::Pool::recommended_size(reserved);
}

/// Replays every rank's local products of the plan through blas::dgemm,
/// serially, into `c` — the same (m, n, k) shapes run_pmm hands the kernel:
/// one whole-k product per owned sub-partition under kEager, one product
/// per k-chunk otherwise.
void replay_kernel(const core::ExperimentConfig& cfg,
                   const partition::PartitionSpec& spec, const util::Matrix& a,
                   const util::Matrix& b, util::Matrix& c, double* flops) {
  const core::ExecutionPlan plan =
      core::build_plan(spec, cfg.summagen_options);
  const bool fused = cfg.summagen_options.scheduler == core::Scheduler::kEager;
  const std::vector<std::int64_t> row0 = spec.row_offsets();
  const std::vector<std::int64_t> col0 = spec.col_offsets();
  const std::int64_t n = spec.n;
  for (const core::GemmOp& op : plan.gemm_ops) {
    const std::int64_t m = spec.subph[static_cast<std::size_t>(op.bi)];
    const std::int64_t w = spec.subpw[static_cast<std::size_t>(op.bj)];
    if (m == 0 || w == 0) continue;
    const std::int64_t r = row0[static_cast<std::size_t>(op.bi)];
    const std::int64_t q = col0[static_cast<std::size_t>(op.bj)];
    std::vector<std::pair<std::int64_t, std::int64_t>> ks;
    if (fused) {
      ks.emplace_back(0, n);
    } else {
      for (const core::GemmChunk& ch : op.chunks) ks.emplace_back(ch.k0, ch.k1);
    }
    for (const auto& [k0, k1] : ks) {
      blas::dgemm(m, w, k1 - k0, 1.0, a.data() + r * n + k0, n,
                  b.data() + k0 * n + q, n, 1.0, c.data() + r * n + q, n,
                  cfg.kernel);
      *flops += static_cast<double>(blas::gemm_flops(m, w, k1 - k0));
    }
  }
}

/// One traced sequence of a case: the benchmark's spans around fill, plan,
/// run_pmm, the kernel replay, verification and an empty sgmpi region.
void traced_sequence(const Case& c, std::size_t index, std::uint64_t call_seed,
                     int call, Recorder& rec, Ledger& ledger,
                     LayerTotals& t) {
  core::ExperimentConfig cfg = c.config;
  cfg.seed = call_seed;
  const std::int64_t n = cfg.n;
  const int p = cfg.platform.nprocs();
  const std::string& lbl = c.label;

  util::Matrix a, b;
  if (cfg.numeric) {
    t.fill_s += rec.span("fill_random", "util", lbl, call, [&] {
      a = util::Matrix(n, n);
      b = util::Matrix(n, n);
      util::fill_random(a, util::derive_seed(cfg.seed, 1));
      util::fill_random(b, util::derive_seed(cfg.seed, 2));
    });
  }

  partition::PartitionSpec spec;
  const double plan_s = rec.span("plan", "partition", lbl, call, [&] {
    if (c.cluster_nodes > 0) {
      spec = cluster_spec(c);
    } else {
      spec = core::plan_pmm(cfg).spec;
    }
  });
  t.plan_s += plan_s;
  if (c.cluster_nodes > 0) cfg.preset_spec = spec;

  const sgpool::PoolStats pool_before = sgpool::Pool::instance().stats();
  const std::int64_t spawned_before = sgpool::Pool::process_threads_spawned();
  core::ExperimentResult res;
  bool ok = false;
  ++ledger.attempted;
  const double run_s = rec.span("run_pmm", "core", lbl, call, [&] {
    try {
      res = core::run_pmm(cfg);
      ok = check_result(c, index, res, ledger);
    } catch (const std::exception& e) {
      ledger.fail(lbl + ": " + e.what());
    }
  });
  const sgpool::PoolStats pool_after = sgpool::Pool::instance().stats();
  if (!ok) return;
  // The modeled cluster's traced call includes its partition step, as the
  // untraced call does.
  t.traced_pmm_s += run_s + (c.cluster_nodes > 0 ? plan_s : 0.0);
  t.pool_tasks += static_cast<double>(pool_after.tasks_executed -
                                      pool_before.tasks_executed);
  t.pool_steals += static_cast<double>(pool_after.steals - pool_before.steals);
  t.threads_spawned += static_cast<double>(
      sgpool::Pool::process_threads_spawned() - spawned_before);

  for (const core::RankReport& r : res.reports) {
    t.bcasts += r.bcasts;
    t.bcast_bytes += static_cast<double>(r.bcast_bytes);
  }
  t.comm_vs += res.comm_time_s;
  t.comp_vs += res.comp_time_s;
  t.hidden_vs += res.hidden_comm_time_s;
  t.idle_vs +=
      *std::max_element(res.rank_idle_s.begin(), res.rank_idle_s.end());
  t.half_perimeter += static_cast<double>(res.total_half_perimeter);
  const util::DataPlaneStats& al = res.alloc;
  t.allocs += static_cast<double>(al.allocs);
  t.alloc_bytes += static_cast<double>(al.alloc_bytes);
  t.copy_bytes += static_cast<double>(al.copy_bytes);
  t.pool_acquires += static_cast<double>(al.pool_acquires);
  t.pool_hits += static_cast<double>(al.pool_hits);
  t.pool_peak_bytes = std::max(
      t.pool_peak_bytes, static_cast<double>(al.pool_peak_resident_bytes));
  t.pack_lookups += static_cast<double>(al.pack_lookups);
  t.pack_hits += static_cast<double>(al.pack_hits);
  t.sched_lookups += static_cast<double>(al.sched_lookups);
  t.sched_hits += static_cast<double>(al.sched_hits);

  if (cfg.numeric) {
    // Pin the shared pool to the size run_pmm runs its kernels with, so
    // the replay neither inherits nor assumes some other sizing.
    const int workers = runner_pool_workers(cfg);
    sgpool::Pool::set_reserved_threads(p);
    sgpool::Pool::configure(workers);
    t.replay_pool_workers = sgpool::Pool::instance().size();
    util::Matrix c_replay(n, n, 0.0);
    t.kernel_s += rec.span("dgemm_replay", "blas", lbl, call, [&] {
      replay_kernel(cfg, spec, a, b, c_replay, &t.flops);
    });
    double err = 0.0;
    t.verify_s += rec.span("reference_verify", "core", lbl, call, [&] {
      const util::Matrix expected = core::reference_multiply(a, b);
      err = util::Matrix::max_abs_diff(c_replay, expected);
    });
    if (!(err <= core::gemm_tolerance(n))) {
      ledger.fail(lbl + ": kernel replay differs from the reference by " +
                  num(err));
    }
  }

  t.spawn_s += rec.span("runtime_spawn", "mpi", lbl, call, [&] {
    sgmpi::Config mc;
    mc.nranks = p;
    mc.link = cfg.platform.mpi_link;
    mc.node_of = cfg.platform.node_of;
    mc.internode_link = cfg.platform.internode_link;
    mc.engine = cfg.engine;
    mc.bcast_algo = cfg.bcast_algo;
    sgmpi::Runtime runtime(mc);
    runtime.run([](sgmpi::Comm&) {});
  });
  ++t.calls;
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

std::vector<Metric> layer_metrics(const LayerTotals& t, bool modeled) {
  const double k = std::max(1, t.calls);
  // The library's own fill, plan and verification inside run_pmm are
  // stood in for by the benchmark's spans of the same public calls.
  const double execute =
      (t.traced_pmm_s - t.fill_s - t.plan_s - t.verify_s) / k;
  const double kernel = t.kernel_s / k;
  const auto rate = [](double hits, double base) {
    return base > 0.0 ? hits / base : 0.0;
  };
  return {
      {"core.verify_s", t.verify_s / k, "s",
       "reference_multiply + max_abs_diff"},
      {"blas.kernel_s", kernel, "s",
       "dgemm replay, pool pinned to " +
           std::to_string(t.replay_pool_workers) + " workers"},
      {"blas.flops", t.flops / k, "count", "replayed"},
      {"blas.kernel_gflops", kernel > 0.0 ? t.flops / k / kernel / 1e9 : 0.0,
       "GFLOP/s", "blas.flops / blas.kernel_s"},
      {"blas.pack_lookups", t.pack_lookups / k, "count", "inside run_pmm"},
      {"blas.pack_hit_rate", rate(t.pack_hits, t.pack_lookups), "ratio",
       "base blas.pack_lookups"},
      {"core.execute_s", execute, "s",
       "residual: traced run_pmm - fill - plan - verify"},
      {"core.overhead_x", kernel > 0.0 ? execute / kernel : 0.0, "ratio",
       "base blas.kernel_s (0 when no kernel runs)"},
      {"core.sched_hit_rate", rate(t.sched_hits, t.sched_lookups), "ratio",
       "base schedule-cache lookups"},
      {"mpi.spawn_s", t.spawn_s / k, "s", "Runtime + empty run"},
      {"mpi.bcasts", t.bcasts / k, "count", "summed over ranks"},
      {"mpi.bcast_mib", t.bcast_bytes / k / kMiB, "MiB", "summed over ranks"},
      {"mpi.comm_vs", t.comm_vs / k, "vs", "max per-rank comm"},
      {"partition.plan_s", t.plan_s / k, "s",
       modeled ? "partition_areas_cpm + nrrp_partition" : "plan_pmm"},
      {"partition.half_perimeter", t.half_perimeter / k, "count",
       "total half-perimeter"},
      {"device.comp_vs", t.comp_vs / k, "vs", "max per-rank compute"},
      {"device.idle_vs", t.idle_vs / k, "vs", "max per-rank idle"},
      {"device.hidden_vs", t.hidden_vs / k, "vs", "comm hidden behind compute"},
      {"dataplane.allocs", t.allocs / k, "count", "inside run_pmm"},
      {"dataplane.alloc_mib", t.alloc_bytes / k / kMiB, "MiB",
       "inside run_pmm"},
      {"dataplane.copy_mib", t.copy_bytes / k / kMiB, "MiB", "inside run_pmm"},
      {"dataplane.pool_hit_rate", rate(t.pool_hits, t.pool_acquires), "ratio",
       "base dataplane.pool_acquires"},
      {"dataplane.pool_acquires", t.pool_acquires / k, "count",
       "inside run_pmm"},
      {"dataplane.pool_peak_mib", t.pool_peak_bytes / kMiB, "MiB",
       "buffer-pool high water"},
      {"util.fill_s", t.fill_s / k, "s", "fill_random of A and B"},
      {"pool.tasks", t.pool_tasks / k, "count", "during run_pmm"},
      {"pool.steals", t.pool_steals / k, "count", "during run_pmm"},
      {"pool.threads_spawned", t.threads_spawned / k, "count",
       "during run_pmm"},
      {"trace.pmm_wall_s", t.traced_pmm_s / k, "s",
       std::to_string(t.calls) + " traced calls"},
      {"trace.overhead_s", (t.traced_pmm_s - t.untraced_pmm_s) / k, "s",
       "traced - interleaved untraced call"},
  };
}

/// The last stdout line: raw measurements run.py aggregates over
/// processes, plus the per-layer metrics of a traced run.
void print_json(double setup_s, const std::vector<double>& walls,
                const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::cout << "{\"attempted\":" << ledger.attempted
            << ",\"failed\":" << ledger.failed << ",\"problems\":[";
  for (std::size_t i = 0; i < ledger.problems.size(); ++i) {
    std::cout << (i > 0 ? "," : "") << quoted(ledger.problems[i]);
  }
  std::cout << "],\"setup_s\":" << num(setup_s)
            << ",\"peak_rss_mib\":" << num(peak_rss_mib())
            << ",\"max_abs_error\":" << num(ledger.max_abs_error)
            << ",\"walls\":[";
  for (std::size_t i = 0; i < walls.size(); ++i) {
    std::cout << (i > 0 ? "," : "") << num(walls[i]);
  }
  std::cout << "],\"vmakespan\":{";
  bool first = true;
  for (const auto& [index, v] : ledger.vmakespan) {
    std::cout << (first ? "" : ",") << "\"" << index << "\":" << num(v);
    first = false;
  }
  std::cout << "},\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << (i > 0 ? "," : "") << quoted(m.name)
              << ":{\"value\":" << num(m.value) << ",\"unit\":\"" << m.unit
              << "\"}";
  }
  std::cout << "}}" << std::endl;
}

int run(const Args& args) {
  const Clock::time_point t_start = Clock::now();
  const std::vector<Case> cases = make_workload(args);
  const bool modeled = cases.front().cluster_nodes > 0;
  if (modeled) {
    const rlimit cap{kModeledAddressSpace, kModeledAddressSpace};
    if (setrlimit(RLIMIT_AS, &cap) != 0) {
      std::cerr << "pmmbench: cannot cap the address space\n";
      return 2;
    }
  }
  std::cout << "pmmbench workload=" << args.workload << " seed=" << args.seed
            << " trace=" << (args.trace ? 1 : 0) << " simd_tier="
            << blas::simd_tier_name(
                   blas::resolve_simd_tier(blas::SimdTier::kAuto))
            << " tune_cache=" << blas::tune_cache_path() << "\n";

  Ledger ledger;
  std::uint64_t call_counter = 0;
  const auto next_seed = [&] {
    // Processes of one run (distinct offsets) draw distinct inputs.
    return util::derive_seed(util::derive_seed(args.seed, 1 + args.offset),
                             call_counter++);
  };
  const auto case_at = [&](int k) {
    return static_cast<std::size_t>(args.offset + k) % cases.size();
  };

  // Untimed warm-up: one call (pool spawn, tune-cache load, buffer-pool and
  // pack-cache fill, fiber stacks).
  run_call(cases[case_at(0)], case_at(0), next_seed(), ledger);
  const double setup_s = seconds_since(t_start);

  // Timed closed loop: one call at a time, cycling through the
  // configurations, until the budget is spent. A traced run covers every
  // configuration at least once.
  std::vector<double> walls;
  std::vector<std::vector<double>> by_case(cases.size());
  Recorder rec(t_start);
  LayerTotals totals;
  const int min_calls = args.trace ? static_cast<int>(cases.size()) : 1;
  int calls = 0;
  const Clock::time_point t_loop = Clock::now();
  while (calls < min_calls || seconds_since(t_loop) < args.seconds) {
    const std::size_t i = case_at(calls + 1);
    const Clock::time_point t0 = Clock::now();
    const bool ok = run_call(cases[i], i, next_seed(), ledger);
    const double wall = seconds_since(t0);
    if (ok) {
      walls.push_back(wall);
      by_case[i].push_back(wall);
    }
    if (args.trace) {
      if (ok) totals.untraced_pmm_s += wall;
      traced_sequence(cases[i], i, next_seed(), calls, rec, ledger, totals);
    }
    ++calls;
  }

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::vector<double>& w = by_case[i];
    if (w.empty()) continue;
    std::printf("  %-18s %3zu calls  median %.4f s  min %.4f  max %.4f\n",
                cases[i].label.c_str(), w.size(), median(w),
                *std::min_element(w.begin(), w.end()),
                *std::max_element(w.begin(), w.end()));
  }
  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = layer_metrics(totals, modeled);
    for (const Metric& m : metrics) {
      std::printf("  %-26s %16.6g %-8s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    if (!args.trace_out.empty()) rec.write_chrome_trace(args.trace_out);
  }
  print_json(setup_s, walls, ledger, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "pmmbench: " << e.what() << "\n";
    return 2;
  }
}
