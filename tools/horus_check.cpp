// horus-check: deterministic scenario exploration for Horus protocol
// stacks, with virtual-synchrony oracles, trace replay and shrinking
// (docs/check.md).
//
// Usage:
//   horus-check [options]                  explore seeds against a scenario
//   horus-check --replay=repro.json       re-execute a repro artifact and
//                                         verify bit-identical reproduction
//
// Scenario options:
//   --stack=SPEC        stack spec, top to bottom ('!' marks a broken
//                       variant, e.g. TOTAL!:...); default MBRSHIP:FRAG:NAK:COM
//   --members=N --rounds=N --casts=N      workload shape (4 / 8 / 1)
//   --loss=F --dup=F --corrupt=F          network fault rates
//   --crashes=N --partitions=N            scenario-level fault budget (1 / 0)
//   --switch-spec=SPEC  live-reconfigure the group to SPEC mid-workload
//                       (enables the cross-epoch oracle)
//   --switch-at-ms=N    pin the switch offset; default 0 derives a
//                       seed-dependent time inside the workload window
//   --oracles=LIST      comma-separated oracle names, or auto (default), all
//
// Exploration options:
//   --seeds=N           number of seeds to run (default 100)
//   --first-seed=S      first seed (default 1)
//   --seed-file=PATH    run exactly the seeds listed in PATH (one per
//                       line, '#' comments); overrides --seeds
//   --no-shrink         keep the first failure unshrunk
//   --shrink-budget=N   max re-executions while shrinking (default 300)
//   --repro=PATH        where to write the artifact on failure
//                       (default repro.json)
//   --quiet             only print failures and the summary
//   --races             also run the horus-race ownership checker across
//                       every seed: group-ownership violations fail the
//                       exploration even when every oracle passes. Needs a
//                       binary built with -DHORUS_CHECK_RACES (the Debug
//                       default); otherwise the flag is a hard error.
//                       The flight recorder is dumped to stderr on the
//                       first violation (docs/obs.md).
//   --metrics           per-seed horus-obs counter deltas plus a final
//                       registry summary (docs/obs.md)
//
// On failure the flight-recorder trace of the failing (shrunk) run is
// written next to the repro artifact as <repro>.flight.txt.
//
// Exit status: 0 all seeds passed (or the replay reproduced exactly),
// 1 a violation was found (artifact written) or --races saw an ownership
// violation, 2 usage error, 3 a replay diverged from its artifact's hashes.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "horus/analysis/race.hpp"
#include "horus/check/explorer.hpp"
#include "horus/obs/flight_recorder.hpp"
#include "horus/obs/metrics.hpp"

namespace {

using namespace horus::check;

int usage() {
  std::cerr << "usage: horus-check [--stack=SPEC] [--seeds=N] "
               "[--first-seed=S] [--seed-file=PATH]\n"
               "                   [--members=N] [--rounds=N] [--casts=N]\n"
               "                   [--loss=F] [--dup=F] [--corrupt=F]\n"
               "                   [--crashes=N] [--partitions=N]\n"
               "                   [--switch-spec=SPEC] [--switch-at-ms=N]\n"
               "                   [--oracles=LIST|auto|all] [--no-shrink]\n"
               "                   [--shrink-budget=N] [--repro=PATH] "
               "[--quiet] [--races] [--metrics]\n"
               "       horus-check --replay=repro.json\n";
  return 2;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << text;
  return out.good();
}

void dump_log(const RunLog& log) {
  for (const RunLog::Member& m : log.members) {
    std::cout << "member " << m.index << " addr " << m.address
              << (m.crashed ? " (crashed)" : "") << ":\n";
    for (const Obs& o : m.obs) {
      std::cout << "  t=" << o.at << " ";
      switch (o.kind) {
        case Obs::Kind::kView: {
          std::cout << "view " << o.view_seq << "@" << o.view_coord << ":";
          for (std::size_t i = 0; i < o.view_members.size(); ++i) {
            std::cout << (i ? "," : "") << o.view_members[i];
          }
          break;
        }
        case Obs::Kind::kCast: {
          std::cout << "cast from " << o.source << " id " << o.msg_id;
          if (o.decoded) {
            std::cout << " = m" << o.payload.sender << " r" << o.payload.round
                      << "#" << o.payload.index << " v" << o.payload.view_seq
                      << " ctx[";
            for (std::size_t i = 0; i < o.payload.ctx.size(); ++i) {
              std::cout << (i ? "," : "") << o.payload.ctx[i];
            }
            std::cout << "]";
          }
          break;
        }
        case Obs::Kind::kStable:
          std::cout << "stable over " << o.stable_view_members.size()
                    << " members";
          break;
      }
      std::cout << "\n";
    }
  }
}

int replay_artifact(const std::string& path, bool dump) {
  std::string text;
  if (!read_file(path, text)) {
    std::cerr << "horus-check: cannot read " << path << "\n";
    return 2;
  }
  Repro repro;
  try {
    repro = Repro::load(text);
  } catch (const std::exception& e) {
    std::cerr << "horus-check: bad artifact " << path << ": " << e.what()
              << "\n";
    return 2;
  }
  RunResult r = replay(repro);
  if (dump) dump_log(r.log);
  std::cout << "replay seed " << repro.seed << " stack "
            << repro.scenario.stack << ": " << r.violations.size()
            << " violation(s), event hash " << std::hex << r.event_hash
            << ", dispatch hash " << r.dispatch_hash << std::dec << "\n";
  for (const Violation& v : r.violations) {
    std::cout << "  " << v.to_string() << "\n";
  }
  if (r.event_hash != repro.event_hash ||
      r.dispatch_hash != repro.dispatch_hash) {
    std::cerr << "horus-check: replay DIVERGED from the artifact (expected "
              << std::hex << repro.event_hash << "/" << repro.dispatch_hash
              << std::dec << ")\n";
    return 3;
  }
  if (r.ok()) {
    std::cerr << "horus-check: replay no longer violates any oracle\n";
    return 3;
  }
  std::cout << "reproduced bit-identically\n";
  return 0;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  try {
    size_t pos = 0;
    out = std::stoull(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

bool parse_int(const std::string& s, int& out) {
  try {
    size_t pos = 0;
    out = std::stoi(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

bool parse_double(const std::string& s, double& out) {
  try {
    size_t pos = 0;
    out = std::stod(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Scenario scn;
  std::uint64_t num_seeds = 100;
  std::uint64_t first_seed = 1;
  std::vector<std::uint64_t> seed_list;
  bool use_seed_list = false;
  bool do_shrink = true;
  int shrink_budget = 300;
  std::string repro_path = "repro.json";
  std::string replay_path;
  bool quiet = false;
  bool dump = false;
  bool check_races = false;
  bool show_metrics = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto val = [&arg](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    if (arg.rfind("--stack=", 0) == 0) {
      scn.stack = val("--stack=");
    } else if (arg.rfind("--seeds=", 0) == 0) {
      if (!parse_u64(val("--seeds="), num_seeds)) return usage();
    } else if (arg.rfind("--first-seed=", 0) == 0) {
      if (!parse_u64(val("--first-seed="), first_seed)) return usage();
    } else if (arg.rfind("--seed-file=", 0) == 0) {
      std::string text;
      if (!read_file(val("--seed-file="), text)) {
        std::cerr << "horus-check: cannot read seed file\n";
        return 2;
      }
      std::istringstream ss(text);
      std::string line;
      while (std::getline(ss, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::uint64_t s = 0;
        if (!parse_u64(line, s)) {
          std::cerr << "horus-check: bad seed line '" << line << "'\n";
          return 2;
        }
        seed_list.push_back(s);
      }
      use_seed_list = true;
    } else if (arg.rfind("--members=", 0) == 0) {
      std::uint64_t n = 0;
      if (!parse_u64(val("--members="), n)) return usage();
      scn.members = n;
    } else if (arg.rfind("--rounds=", 0) == 0) {
      if (!parse_int(val("--rounds="), scn.rounds)) return usage();
    } else if (arg.rfind("--casts=", 0) == 0) {
      if (!parse_int(val("--casts="), scn.casts_per_round)) return usage();
    } else if (arg.rfind("--loss=", 0) == 0) {
      if (!parse_double(val("--loss="), scn.loss)) return usage();
    } else if (arg.rfind("--dup=", 0) == 0) {
      if (!parse_double(val("--dup="), scn.duplicate)) return usage();
    } else if (arg.rfind("--corrupt=", 0) == 0) {
      if (!parse_double(val("--corrupt="), scn.corrupt)) return usage();
    } else if (arg.rfind("--crashes=", 0) == 0) {
      if (!parse_int(val("--crashes="), scn.crashes)) return usage();
    } else if (arg.rfind("--partitions=", 0) == 0) {
      if (!parse_int(val("--partitions="), scn.partitions)) return usage();
    } else if (arg.rfind("--switch-spec=", 0) == 0) {
      scn.switch_spec = val("--switch-spec=");
    } else if (arg.rfind("--switch-at-ms=", 0) == 0) {
      std::uint64_t ms = 0;
      if (!parse_u64(val("--switch-at-ms="), ms)) return usage();
      scn.switch_at = ms * horus::sim::kMillisecond;
    } else if (arg.rfind("--oracles=", 0) == 0) {
      try {
        scn.oracles = parse_oracles(val("--oracles="));
      } catch (const std::exception& e) {
        std::cerr << "horus-check: " << e.what() << "\n";
        return 2;
      }
    } else if (arg == "--no-shrink") {
      do_shrink = false;
    } else if (arg.rfind("--shrink-budget=", 0) == 0) {
      if (!parse_int(val("--shrink-budget="), shrink_budget)) return usage();
    } else if (arg.rfind("--repro=", 0) == 0) {
      repro_path = val("--repro=");
    } else if (arg.rfind("--replay=", 0) == 0) {
      replay_path = val("--replay=");
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--dump") {
      dump = true;
    } else if (arg == "--races") {
      check_races = true;
    } else if (arg == "--metrics") {
      show_metrics = true;
    } else {
      return usage();
    }
  }

  if (check_races && !horus::race::enabled()) {
    std::cerr << "horus-check: --races needs a build with "
                 "-DHORUS_CHECK_RACES (cmake -DCMAKE_BUILD_TYPE=Debug)\n";
    return 2;
  }
  if (check_races) {
    horus::race::reset();
    // Dump the flight recorder the moment the first violation is recorded:
    // the rings still hold the boundary events leading up to the access.
    auto dumped = std::make_shared<bool>(false);
    horus::race::set_violation_hook(
        [dumped](const horus::race::Report& r) {
          if (*dumped) return;
          *dumped = true;
          std::cerr << "horus-race violation (" << horus::race::to_string(r.kind)
                    << " at " << r.what << "); flight recorder:\n"
                    << horus::obs::flight_recorder().dump_all();
        });
  }

  if (!replay_path.empty()) return replay_artifact(replay_path, dump);

  ExploreOptions opts;
  opts.first_seed = first_seed;
  opts.num_seeds = num_seeds;
  opts.shrink_failures = do_shrink;
  opts.shrink_budget = shrink_budget;
  if (!quiet) {
    opts.on_run = [](std::uint64_t seed, const RunResult& r) {
      if (!r.ok()) {
        std::cout << "seed " << seed << ": " << r.violations.size()
                  << " violation(s)\n";
      } else if (seed % 50 == 0) {
        std::cout << "seed " << seed << ": ok\n";
      }
    };
  }
  if (check_races) {
    // Attribute ownership violations to the seed whose run raised them:
    // the detector's counters are global, so diff them per run.
    auto prev = std::move(opts.on_run);
    auto last = std::make_shared<std::uint64_t>(0);
    opts.on_run = [prev, last](std::uint64_t seed, const RunResult& r) {
      if (prev) prev(seed, r);
      std::uint64_t now = horus::race::total_violations();
      if (now > *last) {
        std::cout << "seed " << seed << ": " << (now - *last)
                  << " ownership violation(s)\n";
        *last = now;
      }
    };
  }
  if (show_metrics) {
    // Per-seed deltas of the stack boundary counters: the registry is
    // process-global, so diff across runs like the race counters above.
    auto prev = std::move(opts.on_run);
    auto last = std::make_shared<std::pair<std::uint64_t, std::uint64_t>>();
    opts.on_run = [prev, last, quiet](std::uint64_t seed,
                                      const RunResult& r) {
      if (prev) prev(seed, r);
      horus::obs::Snapshot s = horus::obs::metrics().snapshot();
      auto value = [&s](const char* name) -> std::uint64_t {
        const auto* c = s.find_counter(name);
        return c != nullptr ? static_cast<std::uint64_t>(c->value) : 0;
      };
      std::uint64_t down = value("stack.forward_down");
      std::uint64_t up = value("stack.forward_up");
      if (!quiet) {
        std::cout << "seed " << seed << ": metrics fwd_down="
                  << (down - last->first) << " fwd_up="
                  << (up - last->second) << "\n";
      }
      *last = {down, up};
    };
  }

  ExploreResult total;
  auto run_block = [&](std::uint64_t first, std::uint64_t count) {
    ExploreOptions o = opts;
    o.first_seed = first;
    o.num_seeds = count;
    ExploreResult r = explore(scn, o);
    total.runs += r.runs;
    total.failures += r.failures;
    total.oracles = total.oracles ? total.oracles : r.oracles;
    if (!total.first_failing_seed && r.first_failing_seed) {
      total.first_failing_seed = r.first_failing_seed;
      total.first_violations = std::move(r.first_violations);
      total.repro = std::move(r.repro);
      total.shrink_stats = r.shrink_stats;
    }
    return total.failures == 0;
  };

  try {
    if (use_seed_list) {
      for (std::uint64_t s : seed_list) {
        if (!run_block(s, 1)) break;
      }
    } else {
      run_block(first_seed, num_seeds);
    }
  } catch (const std::exception& e) {
    std::cerr << "horus-check: " << e.what() << "\n";
    return 2;
  }

  std::cout << "horus-check: stack " << scn.stack << ", " << total.runs
            << " seed(s), oracles " << oracles_to_string(total.oracles)
            << ": " << (total.ok() ? "all passed" : "FAILED") << "\n";
  if (show_metrics) {
    horus::obs::Snapshot s = horus::obs::metrics().snapshot();
    std::cout << "metrics (whole exploration):\n";
    for (const auto& c : s.counters) {
      if (c.value != 0) std::cout << "  " << c.name << " = " << c.value << "\n";
    }
    for (const auto& h : s.histograms) {
      if (h.count == 0) continue;
      std::cout << "  " << h.name << ": n=" << h.count
                << " mean=" << (h.sum / h.count)
                << " p50<=" << h.quantile_bound(0.5)
                << " p99<=" << h.quantile_bound(0.99) << "\n";
    }
  }
  if (check_races) {
    std::cout << horus::race::summary();
    if (horus::race::total_violations() > 0 && total.ok()) {
      // Ownership violations fail the run even when every oracle passed.
      return 1;
    }
  }
  if (total.ok()) return 0;

  std::cout << "first failing seed: " << *total.first_failing_seed << "\n";
  for (const Violation& v : total.first_violations) {
    std::cout << "  " << v.to_string() << "\n";
  }
  if (total.repro) {
    if (total.shrink_stats) {
      std::cout << "shrunk in " << total.shrink_stats->runs << " runs: plan "
                << total.shrink_stats->plan_before << " -> "
                << total.shrink_stats->plan_after << " events, faults "
                << total.shrink_stats->faults_before << " -> "
                << total.shrink_stats->faults_after << "\n";
    }
    if (write_file(repro_path, total.repro->dump())) {
      std::cout << "repro written to " << repro_path << "\n";
    } else {
      std::cerr << "horus-check: cannot write " << repro_path << "\n";
    }
    // Flight-recorder trace of the failing run, next to the repro: replay
    // the artifact deterministically so the rings hold exactly the shrunk
    // failure's events, not whichever seed explore() ran last.
    horus::obs::flight_recorder().reset();
    try {
      (void)replay(*total.repro);
    } catch (const std::exception&) {
      // a replay that dies still leaves the events recorded up to the throw
    }
    std::string flight = horus::obs::flight_recorder().dump_all();
    if (flight.empty()) {
      flight = "flight recorder empty\n";
    }
    const std::string flight_path = repro_path + ".flight.txt";
    if (write_file(flight_path, flight)) {
      std::cout << "flight-recorder trace written to " << flight_path << "\n";
    } else {
      std::cerr << "horus-check: cannot write " << flight_path << "\n";
    }
  }
  return 1;
}
