// horus-perfbench: one command, three workloads, every end-to-end metric by
// name and unit, output checks on every run (README.md).
//
//   horus_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--backlog-bound <share>] [--trace-dir <dir>]
//   horus_perfbench --selftest
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// `attempted` counts expected (cast, member) deliveries and `failed` the
// ones missing at the deadline, so failed/attempted is lost_frac.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

struct Def {
  std::string name;
  std::string unit;
};

const Def kEndToEnd[] = {
    {"setup_s", "s"},          {"msgs_per_s", "1/s"},
    {"cpu_us_per_msg", "us"},  {"lat_p50_us", "us"},
    {"lat_p99_us", "us"},      {"dgrams_per_msg", "count"},
    {"wire_bytes_per_msg", "B"}, {"idle_dgrams_per_s", "1/s"},
    {"rss_mb", "MB"},          {"delivered_frac", "ratio"},
};

const char* const kTracedLayers[] = {"PACK", "TOTAL", "STABLE", "MBRSHIP",
                                     "FRAG", "NAK",   "COM"};

std::vector<Def> per_layer_defs() {
  std::vector<Def> defs;
  for (const char* l : kTracedLayers) {
    const std::string p = std::string("layer.") + l;
    defs.push_back({p + ".down_self_us_per_msg", "us"});
    defs.push_back({p + ".up_self_us_per_msg", "us"});
    defs.push_back({p + ".down_calls_per_msg", "count"});
    defs.push_back({p + ".up_calls_per_msg", "count"});
  }
  for (Def d : std::initializer_list<Def>{
      {"layer.outside_us_per_msg", "us"},   {"layer.app_us_per_msg", "us"},
      {"trace.overhead_frac", "ratio"},     {"core.cast_call_us", "us"},
      {"core.run_us_per_msg", "us"},        {"core.header_bytes_per_msg", "B"},
      {"core.bytes_copied_per_msg", "B"},   {"core.pool_misses_per_msg", "count"},
      {"pack.casts_per_train", "count"},    {"pack.flush_timer_frac", "ratio"},
      {"sim.events_per_msg", "count"},      {"sim.loss_drops_per_msg", "count"},
      {"net.tx_batches_per_msg", "count"},  {"net.rx_wakeups_per_msg", "count"},
      {"net.rx_dgrams_per_wakeup", "count"}, {"net.tx_eagain_per_msg", "count"},
      {"runtime.queue_delay_p50_us", "us"}, {"runtime.queue_delay_p99_us", "us"},
      {"driver.events_per_msg", "count"},
  }) {
    defs.push_back(std::move(d));
  }
  return defs;
}

void print_result(const pb::Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const pb::Metric& m = r.metrics[i];
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: horus_perfbench --workload <total_one_sender|"
               "packed_all_senders_lossy|udp_loopback_fifo> --seed <n> "
               "--seconds <s> --trace <0|1> [--backlog-bound <share>] "
               "[--trace-dir <dir>]\n       horus_perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunArgs args;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--backlog-bound") {
      args.backlog_bound = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace-dir") {
      args.trace_dir = v;
    } else {
      return usage();
    }
  }
  if (selftest) {
    std::string report;
    const bool ok = pb::run_selftest(report);
    std::printf("%s%s\n", report.c_str(), ok ? "selftest passed" : "selftest FAILED");
    return ok ? 0 : 1;
  }
  if (args.seconds <= 0) return usage();

  pb::Result res;
  pb::EndToEnd e2e;
  pb::LayerValues layers;
  try {
    if (pb::is_sim_workload(args.workload)) {
      pb::run_sim_workload(args, res, e2e, layers);
    } else if (pb::is_udp_workload(args.workload)) {
      pb::run_udp_workload(args, res, e2e, layers);
    } else {
      return usage();
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "horus_perfbench: %s\n", ex.what());
    return 1;
  }

  if (!args.trace) {
    for (const Def& d : kEndToEnd) res.add(d.name, e2e[d.name], d.unit);
  } else {
    for (const Def& d : per_layer_defs()) {
      auto it = layers.find(d.name);
      res.add(d.name, it == layers.end() ? 0.0 : it->second, d.unit);
    }
  }
  for (const std::string& p : res.problems) std::printf("CHECK FAILED: %s\n", p.c_str());
  for (const pb::Metric& m : res.metrics) {
    std::printf("%-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(res);
  return 0;
}
