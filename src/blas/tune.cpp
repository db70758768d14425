#include "src/blas/tune.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/blas/fastmm.hpp"
#include "src/blas/gemm.hpp"
#include "src/blas/microkernel.hpp"
#include "src/util/matrix.hpp"
#include "src/util/rng.hpp"

namespace summagen::blas {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON scanner for the tune-cache format (objects, strings,
// numbers; arrays only skipped). Hand-rolled because the repo carries no
// JSON dependency.
// ---------------------------------------------------------------------------
class Scanner {
 public:
  explicit Scanner(const std::string& s)
      : p_(s.data()), end_(s.data() + s.size()) {}

  void ws() {
    while (p_ < end_ && std::isspace(static_cast<unsigned char>(*p_))) ++p_;
  }

  bool consume(char c) {
    ws();
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool peek(char c) {
    ws();
    return p_ < end_ && *p_ == c;
  }

  bool parse_string(std::string* out) {
    ws();
    if (p_ >= end_ || *p_ != '"') return false;
    ++p_;
    out->clear();
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\' && p_ + 1 < end_) {
        ++p_;
        switch (*p_) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          default: out->push_back(*p_); break;
        }
      } else {
        out->push_back(*p_);
      }
      ++p_;
    }
    if (p_ >= end_) return false;
    ++p_;  // closing quote
    return true;
  }

  bool parse_number(double* out) {
    ws();
    char* after = nullptr;
    const double v = std::strtod(p_, &after);
    if (after == p_) return false;
    p_ = after;
    *out = v;
    return true;
  }

  // Skips any value (string/number/object/array/true/false/null).
  bool skip_value() {
    ws();
    if (p_ >= end_) return false;
    if (*p_ == '"') {
      std::string s;
      return parse_string(&s);
    }
    if (*p_ == '{' || *p_ == '[') {
      const char open = *p_;
      const char close = open == '{' ? '}' : ']';
      int depth = 0;
      bool in_string = false;
      while (p_ < end_) {
        const char c = *p_++;
        if (in_string) {
          if (c == '\\' && p_ < end_) ++p_;
          else if (c == '"') in_string = false;
          continue;
        }
        if (c == '"') in_string = true;
        else if (c == open) ++depth;
        else if (c == close && --depth == 0) return true;
      }
      return false;
    }
    while (p_ < end_ && *p_ != ',' && *p_ != '}' && *p_ != ']' &&
           !std::isspace(static_cast<unsigned char>(*p_))) {
      ++p_;
    }
    return true;
  }

 private:
  const char* p_;
  const char* end_;
};

bool parse_record(Scanner& sc, TuneRecord* rec) {
  if (!sc.consume('{')) return false;
  if (sc.consume('}')) return true;
  do {
    std::string field;
    double v = 0.0;
    if (!sc.parse_string(&field) || !sc.consume(':')) return false;
    if (!sc.parse_number(&v)) return false;
    if (field == "mc") rec->bs.mc = static_cast<std::int64_t>(v);
    else if (field == "nc") rec->bs.nc = static_cast<std::int64_t>(v);
    else if (field == "kc") rec->bs.kc = static_cast<std::int64_t>(v);
    else if (field == "gflops") rec->gflops = v;
    else if (field == "fastmm_crossover")
      rec->fastmm_crossover = static_cast<std::int64_t>(v);
  } while (sc.consume(','));
  return sc.consume('}');
}

bool parse_tiers(Scanner& sc, std::map<std::string, TuneRecord>* tiers) {
  if (!sc.consume('{')) return false;
  if (sc.consume('}')) return true;
  do {
    std::string tier;
    if (!sc.parse_string(&tier) || !sc.consume(':')) return false;
    TuneRecord rec;
    if (!parse_record(sc, &rec)) return false;
    (*tiers)[tier] = rec;
  } while (sc.consume(','));
  return sc.consume('}');
}

void json_escape_to(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

}  // namespace

BlockSizes default_block_sizes(SimdTier tier) {
  switch (tier) {
    case SimdTier::kAvx2:
      // MR=6: 96 rows x KC=256 doubles of packed A ~ 192 KiB (L2); the
      // packed B block streams from L3.
      return {96, 4096, 256};
    case SimdTier::kSse2:
    case SimdTier::kScalar:
    case SimdTier::kAuto:
      // KC=256 is the pre-dispatch kPacked depth (kept for the scalar
      // bit-identity guarantee, which in fact holds for any KC).
      return {128, 4096, 256};
  }
  return {128, 4096, 256};
}

std::string tune_cache_path() {
  if (const char* env = std::getenv("SUMMAGEN_TUNE_CACHE")) return env;
  if (const char* home = std::getenv("HOME")) {
    return std::string(home) + "/.cache/summagen/tune.json";
  }
  return {};
}

std::string cpu_model_key() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const std::string name = trim(line.substr(colon + 1));
        if (!name.empty()) return name;
      }
    }
  }
  return "unknown-cpu";
}

bool parse_tune_file(const std::string& text, TuneFile* out) {
  Scanner sc(text);
  TuneFile file;
  if (!sc.consume('{')) return false;
  if (!sc.consume('}')) {
    do {
      std::string key;
      if (!sc.parse_string(&key) || !sc.consume(':')) return false;
      if (key == "cpus") {
        if (!sc.consume('{')) return false;
        if (!sc.consume('}')) {
          do {
            std::string cpu;
            if (!sc.parse_string(&cpu) || !sc.consume(':')) return false;
            if (!parse_tiers(sc, &file[cpu])) return false;
          } while (sc.consume(','));
          if (!sc.consume('}')) return false;
        }
      } else if (!sc.skip_value()) {
        return false;
      }
    } while (sc.consume(','));
    if (!sc.consume('}')) return false;
  }
  *out = std::move(file);
  return true;
}

std::string format_tune_file(const TuneFile& file) {
  std::ostringstream os;
  os << "{\n  \"version\": 1,\n  \"cpus\": {";
  bool first_cpu = true;
  for (const auto& [cpu, tiers] : file) {
    os << (first_cpu ? "\n" : ",\n") << "    \"";
    json_escape_to(os, cpu);
    os << "\": {";
    bool first_tier = true;
    for (const auto& [tier, rec] : tiers) {
      os << (first_tier ? "\n" : ",\n") << "      \"";
      json_escape_to(os, tier);
      os << "\": {\"mc\": " << rec.bs.mc << ", \"nc\": " << rec.bs.nc
         << ", \"kc\": " << rec.bs.kc << ", \"gflops\": " << rec.gflops;
      if (rec.fastmm_crossover > 0) {
        os << ", \"fastmm_crossover\": " << rec.fastmm_crossover;
      }
      os << "}";
      first_tier = false;
    }
    os << "\n    }";
    first_cpu = false;
  }
  os << "\n  }\n}\n";
  return os.str();
}

bool load_tune_file(const std::string& path, TuneFile* out) {
  if (path.empty()) return false;
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_tune_file(ss.str(), out);
}

bool save_tune_file(const std::string& path, const TuneFile& file) {
  if (path.empty()) return false;
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream out(path);
  if (!out) return false;
  out << format_tune_file(file);
  return static_cast<bool>(out);
}

namespace {

// Tuned entries for this CPU, loaded once per process (missing or
// malformed caches resolve to an empty map — callers fall back to the
// built-in defaults).
const std::map<std::string, TuneRecord>& tuned_records_for_this_cpu() {
  static const std::map<std::string, TuneRecord> tuned = [] {
    TuneFile file;
    std::map<std::string, TuneRecord> mine;
    if (load_tune_file(tune_cache_path(), &file)) {
      const auto it = file.find(cpu_model_key());
      if (it != file.end()) mine = it->second;
    }
    return mine;
  }();
  return tuned;
}

}  // namespace

BlockSizes resolve_block_sizes(const GemmOptions& opts, SimdTier tier) {
  const auto& tuned = tuned_records_for_this_cpu();
  BlockSizes bs = default_block_sizes(tier);
  const auto it = tuned.find(simd_tier_name(tier));
  if (it != tuned.end() && it->second.bs.mc > 0 && it->second.bs.nc > 0 &&
      it->second.bs.kc > 0) {
    bs = it->second.bs;
  }
  if (opts.mc > 0) bs.mc = opts.mc;
  if (opts.nc > 0) bs.nc = opts.nc;
  if (opts.kc > 0) bs.kc = opts.kc;
  bs.mc = std::max<std::int64_t>(1, bs.mc);
  bs.nc = std::max<std::int64_t>(1, bs.nc);
  bs.kc = std::max<std::int64_t>(1, bs.kc);
  return bs;
}

std::vector<TuneResult> autotune_block_sizes(
    std::int64_t n, int repeats, const std::vector<SimdTier>& tiers) {
  if (n < 32) n = 32;
  if (repeats < 1) repeats = 1;
  util::Matrix a(n, n), b(n, n), c(n, n);
  util::fill_random(a, 1);
  util::fill_random(b, 2);

  std::vector<TuneResult> winners;
  for (SimdTier tier : tiers) {
    if (tier == SimdTier::kAuto || !simd_tier_available(tier)) continue;
    const std::int64_t mr = detail::microkernel_for(tier).mr;
    TuneResult best;
    best.tier = tier;
    for (std::int64_t mc : {8 * mr, 16 * mr, 32 * mr}) {
      for (std::int64_t kc : {128ll, 256ll, 512ll}) {
        for (std::int64_t nc : {512ll, 2048ll, 8192ll}) {
          GemmOptions opts;
          opts.kernel = GemmKernel::kPacked;
          opts.tier = tier;
          opts.mc = mc;
          opts.nc = nc;
          opts.kc = kc;
          // Warm-up: touches the pool classes for this candidate's shapes.
          dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, 0.0, c.data(), n,
                opts);
          std::vector<double> gflops;
          for (int r = 0; r < repeats; ++r) {
            const auto t0 = std::chrono::steady_clock::now();
            dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, 0.0, c.data(), n,
                  opts);
            const std::chrono::duration<double> dt =
                std::chrono::steady_clock::now() - t0;
            gflops.push_back(static_cast<double>(gemm_flops(n, n, n)) /
                             dt.count() / 1e9);
          }
          const double med = median_of(std::move(gflops));
          if (med > best.gflops) {
            best.gflops = med;
            best.bs = {mc, nc, kc};
          }
        }
      }
    }
    winners.push_back(best);
  }
  std::sort(winners.begin(), winners.end(),
            [](const TuneResult& x, const TuneResult& y) {
              return x.gflops > y.gflops;
            });
  return winners;
}

std::int64_t tuned_fastmm_crossover(SimdTier tier) {
  const auto& tuned = tuned_records_for_this_cpu();
  const auto it = tuned.find(simd_tier_name(tier));
  return it != tuned.end() && it->second.fastmm_crossover > 0
             ? it->second.fastmm_crossover
             : 0;
}

FastMmTuneResult autotune_fastmm_crossover(std::int64_t n, int repeats,
                                           SimdTier tier) {
  if (n < 256) n = 256;
  if (repeats < 1) repeats = 1;
  util::Matrix a(n, n), b(n, n), c(n, n);
  util::fill_random(a, 1);
  util::fill_random(b, 2);

  FastMmTuneResult best;
  best.crossover = default_fastmm_crossover();
  for (std::int64_t x : {256ll, 384ll, 512ll, 768ll}) {
    GemmOptions opts;
    opts.kernel = GemmKernel::kPacked;
    opts.tier = tier;
    opts.fastmm = FastMmKind::kStrassen;
    opts.fastmm_crossover = x;
    // Warm-up: populates the pool size classes this candidate's recursion
    // shape will lease.
    dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, 0.0, c.data(), n, opts);
    std::vector<double> gflops;
    for (int r = 0; r < repeats; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      dgemm(n, n, n, 1.0, a.data(), n, b.data(), n, 0.0, c.data(), n, opts);
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      gflops.push_back(static_cast<double>(gemm_flops(n, n, n)) / dt.count() /
                       1e9);
    }
    const double med = median_of(std::move(gflops));
    if (med > best.gflops) {
      best.gflops = med;
      best.crossover = x;
    }
  }
  return best;
}

}  // namespace summagen::blas
