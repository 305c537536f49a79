// bench_e2e command line.
//
//   bench_e2e --workload <name> [--seed N] [--seconds S]
//             [--out results.json] [--trace trace.json] [--tmp DIR]
//             [--meta key=value]...
//   bench_e2e --smoke [--tmp DIR]
//
// One process runs one workload, so each starts from a fresh heap and
// ru_maxrss is its own; run.sh runs the workloads one after another.
// Prints a report; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics, or the per-layer metrics when --trace is given. Exits
// non-zero when any operation failed or its variants differed from the
// reference.

#include <sys/personality.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "e2e.h"

namespace gesall::e2e {
namespace {

namespace fs = std::filesystem;

// The end-to-end metrics every workload reports, in BENCHMARK.json order.
const char* const kEndToEnd[] = {
    "sample_wall_s", "cpu_s_per_kpair", "peak_rss_mb", "disk_bytes_per_pair",
    "setup_s",       "job_p50_s",       "job_p90_s",   "jobs_per_s",
};

bool ValidName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void AppendMetrics(std::string* out, const std::vector<Metric>& metrics,
                   const std::string& prefix, bool* first) {
  char buf[64];
  for (const auto& m : metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    *out += (*first ? "" : ", ") + JsonString(prefix + m.name) +
            ": {\"value\": " + buf + ", \"unit\": " + JsonString(m.unit) + "}";
    *first = false;
  }
}

bool AllFinite(const WorkloadResult& r) {
  for (const auto* set : {&r.end_to_end, &r.per_layer}) {
    for (const auto& m : *set) {
      if (!std::isfinite(m.value)) return false;
    }
  }
  return true;
}

// The last stdout line: one JSON result object.
std::string ResultLine(const WorkloadResult& r, bool traced) {
  std::string metrics;
  bool first = true;
  AppendMetrics(&metrics, traced ? r.per_layer : r.end_to_end, "", &first);
  const bool correct = r.failed == 0 && AllFinite(r);
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {" +
         metrics + "}}";
}

using Meta = std::vector<std::pair<std::string, std::string>>;

Status WriteResults(const std::string& path, const Options& opt,
                    const Meta& meta, const WorkloadResult& r) {
  std::string out = "{\n  \"benchmark\": \"bench_e2e\",\n";
  out += "  \"seed\": " + std::to_string(opt.seed) + ",\n";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", opt.seconds);
  out += std::string("  \"seconds\": ") + buf + ",\n";
  out += "  \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
  out += "  \"meta\": {";
  for (size_t i = 0; i < meta.size(); ++i) {
    out += (i ? ", " : "") + JsonString(meta[i].first) + ": " +
           JsonString(meta[i].second);
  }
  out += "},\n  \"workload\": " + JsonString(r.workload) +
         ",\n  \"attempted\": " + std::to_string(r.attempted) +
         ",\n  \"failed\": " + std::to_string(r.failed) + ",\n  \"errors\": [";
  for (size_t e = 0; e < r.errors.size(); ++e) {
    out += (e ? ", " : "") + JsonString(r.errors[e]);
  }
  out += "],\n  \"op_walls_s\": [";
  for (size_t o = 0; o < r.op_walls.size(); ++o) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", o ? ", " : "", r.op_walls[o]);
    out += buf;
  }
  out += "],\n  \"end_to_end\": {";
  bool first = true;
  AppendMetrics(&out, r.end_to_end, "", &first);
  out += "},\n  \"per_layer\": {";
  first = true;
  AppendMetrics(&out, r.per_layer, "", &first);
  out += "}\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  const bool written = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  if (std::fclose(f) != 0 || !written) {
    return Status::IOError("cannot write " + path);
  }
  return Status::OK();
}

void PrintReport(const WorkloadResult& r) {
  std::printf("workload %s: %lld operations, %lld failed\n",
              r.workload.c_str(), static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (const auto& m : r.end_to_end) {
    std::printf("  %-22s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& e : r.errors) std::printf("  FAILED %s\n", e.c_str());
  std::fflush(stdout);
}

// The ctest check: every workload at smoke scale, traced; every metric
// present, validly named and finite; then one tampered reference digest
// must make the checker fail an operation.
int Smoke(Options opt) {
  opt.seconds = 0;
  bool ok = true;
  auto check = [&ok](bool cond, const std::string& what) {
    if (!cond) {
      std::printf("smoke FAILED: %s\n", what.c_str());
      ok = false;
    }
  };
  size_t per_layer_count = 0;
  for (const Workload& w : Workloads(/*smoke=*/true)) {
    opt.trace_path =
        (fs::path(opt.tmp_dir) / (std::string(w.name) + ".trace.json"))
            .string();
    WorkloadResult r = RunWorkload(w, opt);
    PrintReport(r);
    check(r.failed == 0, std::string(w.name) + " had failed operations");
    check(r.end_to_end.size() == std::size(kEndToEnd),
          std::string(w.name) + " end-to-end metric count");
    for (size_t i = 0; i < r.end_to_end.size() && i < std::size(kEndToEnd);
         ++i) {
      const Metric& m = r.end_to_end[i];
      check(m.name == kEndToEnd[i], "metric order: " + m.name);
      check(ValidName(m.name), "metric name: " + m.name);
      check(std::isfinite(m.value) && m.value > 0,
            std::string(w.name) + "." + m.name + " not finite and positive");
    }
    if (per_layer_count == 0) per_layer_count = r.per_layer.size();
    check(r.per_layer.size() == per_layer_count && per_layer_count > 0 &&
              per_layer_count <= 128,
          std::string(w.name) + " per-layer metric count");
    for (const auto& m : r.per_layer) {
      check(ValidName(m.name), "per-layer name: " + m.name);
      check(std::isfinite(m.value), w.name + ("." + m.name) + " not finite");
    }
    std::FILE* trace = std::fopen(opt.trace_path.c_str(), "r");
    check(trace != nullptr && std::fgetc(trace) == '{',
          "trace file " + opt.trace_path);
    if (trace != nullptr) std::fclose(trace);
  }

  // The checker must fire: a tampered reference digest for operation 0.
  const Workload tampered = Workloads(/*smoke=*/true).front();
  Options bad = opt;
  bad.trace_path.clear();
  bad.tamper = true;
  WorkloadResult r = RunWorkload(tampered, bad);
  check(r.failed >= 1, "tampered reference digest went unnoticed");
  std::printf("smoke: %s (%zu end-to-end, %zu per-layer metrics)\n",
              ok ? "OK" : "FAILED", std::size(kEndToEnd), per_layer_count);
  return ok ? 0 : 1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e (--workload NAME | --smoke) "
               "[--seed N] [--seconds S] [--out FILE] "
               "[--trace FILE] [--tmp DIR] [--meta KEY=VALUE]...\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  std::string workload, out_path;
  Meta meta;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      smoke = true;
    } else if ((arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
                arg == "--out" || arg == "--trace" || arg == "--tmp" ||
                arg == "--meta") &&
               (v = value()) != nullptr) {
      if (arg == "--workload") workload = v;
      if (arg == "--seed") opt.seed = std::strtoull(v, nullptr, 10);
      if (arg == "--seconds") opt.seconds = std::atof(v);
      if (arg == "--out") out_path = v;
      if (arg == "--trace") opt.trace_path = v;
      if (arg == "--tmp") opt.tmp_dir = v;
      if (arg == "--meta") {
        const std::string kv = v;
        const size_t eq = kv.find('=');
        if (eq == std::string::npos) return Usage("--meta needs KEY=VALUE");
        meta.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
      }
    } else {
      return Usage(("bad argument " + arg).c_str());
    }
  }
  if (opt.seconds < 0 || !std::isfinite(opt.seconds)) {
    return Usage("--seconds must be >= 0");
  }
  fs::create_directories(opt.tmp_dir);
  if (smoke) return Smoke(opt);

  const std::vector<Workload> table = Workloads(/*smoke=*/false);
  const Workload* selected = nullptr;
  for (const Workload& w : table) {
    if (workload == w.name) selected = &w;
  }
  if (selected == nullptr) return Usage("name one workload");

  const WorkloadResult r = RunWorkload(*selected, opt);
  PrintReport(r);
  int code = r.failed > 0 || !AllFinite(r) ? 1 : 0;
  if (!out_path.empty()) {
    Status st = WriteResults(out_path, opt, meta, r);
    if (!st.ok()) {
      std::fprintf(stderr, "bench_e2e: %s\n", st.ToString().c_str());
      code = 1;
    }
  }
  std::printf("%s\n", ResultLine(r, !opt.trace_path.empty()).c_str());
  return code;
}

// Re-executes the binary once with address-space randomization off.
// With it on, where the index and heap land moved whole-run medians by
// about 5%, several times the spread left once the layout is fixed.
// Falls through (randomized) where the personality cannot be changed.
void DisableAddressRandomization(char** argv) {
  const int current = personality(0xffffffff);
  if (current == -1 || (current & ADDR_NO_RANDOMIZE) != 0) return;
  if (personality(current | ADDR_NO_RANDOMIZE) == -1) return;
  std::error_code ec;
  const fs::path self = fs::read_symlink("/proc/self/exe", ec);
  if (!ec) execv(self.c_str(), argv);
}

}  // namespace
}  // namespace gesall::e2e

int main(int argc, char** argv) {
  gesall::e2e::DisableAddressRandomization(argv);
  return gesall::e2e::Main(argc, argv);
}
