// scalebench: runs one benchmark workload once and prints one JSON object.
//
//   scalebench --workload NAME --seed N [--kv-rate OPS] [--trace]
//
// run.py calls this binary repeatedly, one process per repetition so each
// reports its own peak RSS, and turns the results into the benchmark's
// metrics. Exit 0 when the output checks passed, 3 when one failed (the JSON
// is printed either way), 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "scalebench/workloads.h"
#include "src/common/logging.h"
#include "src/common/strings.h"

#ifndef SCALEBENCH_BUILD_TYPE
#define SCALEBENCH_BUILD_TYPE "unknown"
#endif

namespace scalebench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: scalebench --workload NAME --seed N [--kv-rate OPS] [--trace]\n"
               "  NAME: fig3-c3831-n256 | colo-probe-n512 | kv-durable-n64 | "
               "chaos-search-n64\n");
  return 2;
}

std::string ToJson(const Options& opt, const Outcome& out) {
  scalecheck::JsonWriter w;
  w.BeginObject();
  w.Field("workload", opt.workload);
  w.Field("seed", opt.seed);
  w.Field("kv_rate", opt.kv_rate);
  w.Field("trace", opt.trace);
  w.Field("compiler", __VERSION__);
  w.Field("build_type", SCALEBENCH_BUILD_TYPE);
  w.Field("wall_s", out.wall_s);
  w.Field("cpu_s", out.cpu_s);
  w.Field("peak_rss_mb", out.peak_rss_mb);
  w.Key("setup_s").BeginArray();
  for (double s : out.setup_s) w.Double(s);
  w.EndArray();
  w.Field("attempted", out.attempted);
  w.Field("failed", out.failed);
  w.Key("check_failures").BeginArray();
  for (const std::string& why : out.check_failures) w.String(why);
  w.EndArray();
  w.Key("counts").BeginObject();
  for (const auto& [name, value] : out.counts) w.Field(name, value);
  w.EndObject();
  w.Key("layers").BeginObject();
  for (const auto& [name, value] : out.layers) w.Field(name, value);
  w.EndObject();
  w.Key("spans").BeginArray();
  for (const Span& s : out.spans) {
    w.BeginObject();
    w.Field("name", s.name);
    w.Field("layer", s.layer);
    w.Field("start_ns", s.start_ns);
    w.Field("end_ns", s.end_ns);
    w.Field("parent", s.parent);
    w.Field("placed", s.placed);
    w.Field("workload", opt.workload);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace
}  // namespace scalebench

int main(int argc, char** argv) {
  using scalebench::Options;
  scalecheck::SetLogLevel(scalecheck::LogLevel::kError);
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      opt.seed = std::strtoull(argv[++i], &end, 0);
      have_seed = *end == '\0';
    } else if (arg == "--kv-rate" && has_value) {
      char* end = nullptr;
      opt.kv_rate = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(opt.kv_rate > 0.0)) {
        return scalebench::Usage();
      }
    } else if (arg == "--trace") {
      opt.trace = true;
    } else {
      return scalebench::Usage();
    }
  }
  if (!have_seed || !scalebench::IsWorkload(opt.workload)) {
    return scalebench::Usage();
  }
  scalebench::Outcome out = scalebench::RunWorkload(opt);
  std::printf("%s\n", scalebench::ToJson(opt, out).c_str());
  return out.check_failures.empty() ? 0 : 3;
}
