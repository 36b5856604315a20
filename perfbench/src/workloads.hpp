// The benchmark's workloads. Each fills a Result with the end-to-end
// metrics (untraced run) or, when args.trace is set, the per-layer
// metrics it can measure; main() names and orders them.
#pragma once

#include <map>
#include <string>

#include "common.hpp"

namespace pb {

/// Per-layer metric values by name; main() reports 0 for a metric whose
/// layer a workload does not cross.
using LayerValues = std::map<std::string, double>;

/// The ten end-to-end values, by metric name.
using EndToEnd = std::map<std::string, double>;

bool is_sim_workload(const std::string& name);
void run_sim_workload(const RunArgs& args, Result& res, EndToEnd& e2e,
                      LayerValues& layers);

bool is_udp_workload(const std::string& name);
void run_udp_workload(const RunArgs& args, Result& res, EndToEnd& e2e,
                      LayerValues& layers);

/// Checks the tracer's self-time subtraction on a synthetic three-layer
/// stack whose layers burn known amounts of time. Appends a line per
/// layer to `report`; returns false if any reading is off.
bool run_selftest(std::string& report);

/// total / n, or 0 when n is 0. With n the casts of the measured phase it
/// gives every *_per_msg metric.
inline double per(double total, std::uint64_t n) {
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

}  // namespace pb
