// hgc_obs — offline tooling for metrics snapshots.
//
//   hgc_obs merge merged.json shard0.json shard1.json ...
//   hgc_obs diff before.json after.json
//   hgc_obs top 10 metrics.json
//
// The fleet story: every process (or shard of a split sweep) writes its own
// snapshot with --metrics-out; `merge` folds them with Snapshot::merge, so
// counters and histogram buckets sum exactly and the totals are identical
// to an unsplit run (CI asserts this on a split fig3 grid). `diff` turns
// two snapshots of the same process into per-second rates using the
// snapshot timestamps; `top` ranks the biggest counters and time sinks.
// Inputs are JSON snapshots or recorder JSONL; merge writes JSON.
//
// File arguments accept '-' for stdin/stdout. Subcommands and positional
// arguments are deliberate here (unlike the --flag-only sweep CLIs):
// merge's variadic input list reads naturally as a file list.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace {

using hgc::obs::Snapshot;

void print_usage(std::ostream& os) {
  os << "usage: hgc_obs <command> [args]\n\n"
        "commands:\n"
        "  merge OUT IN [IN...]  fold snapshots into one (counters and\n"
        "                        histogram buckets sum exactly; gauges keep\n"
        "                        the freshest value; stats/quantiles merge)\n"
        "  diff OLD NEW          counter deltas between two snapshots of\n"
        "                        one process, with per-second rates from\n"
        "                        the snapshot timestamps\n"
        "  top [N] IN            the N largest counters and the stats with\n"
        "                        the most accumulated time (default N=10)\n\n"
        "IN/OUT accept '-' for stdin/stdout. Inputs are JSON snapshots\n"
        "(--metrics-out) or recorder JSONL (--metrics-log); OUT is JSON.\n";
}

std::string slurp(const std::string& path) {
  std::ostringstream buf;
  if (path == "-") {
    buf << std::cin.rdbuf();
  } else {
    std::ifstream file(path);
    if (!file) throw std::invalid_argument("cannot open: " + path);
    buf << file.rdbuf();
  }
  return buf.str();
}

/// A JSON snapshot, or a recorder JSONL file — each line is a complete
/// snapshot, and the last one wins (useful for `top` over a log). Errors
/// name the file, and in JSONL the line.
Snapshot read_snapshot(const std::string& path) {
  const std::string text = slurp(path);
  if (text.find_first_not_of(" \t\r\n") == std::string::npos)
    throw std::invalid_argument("empty snapshot input: " + path);
  // A file whose first line is a whole snapshot is JSONL, and then every
  // line must be one: recorder samples are cumulative, so "latest wins" is
  // just the final line. A pretty-printed object's first line does not
  // parse alone, so it falls through to the whole-document parse.
  std::istringstream lines(text);
  std::string line;
  std::size_t number = 0;
  Snapshot last;
  bool jsonl = false;
  while (std::getline(lines, line)) {
    ++number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      last = Snapshot::read_json(line);
    } catch (const std::exception& e) {
      if (!jsonl) break;
      throw std::runtime_error(path + ":" + std::to_string(number) + ": " +
                               e.what());
    }
    jsonl = true;
  }
  if (jsonl) return last;
  try {
    return Snapshot::read_json(text);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

void write_snapshot(const Snapshot& snap, const std::string& path) {
  if (path == "-") {
    snap.write_json(std::cout);
    return;
  }
  std::ofstream file(path);
  if (!file) throw std::invalid_argument("cannot open for write: " + path);
  snap.write_json(file);
}

int cmd_merge(const std::vector<std::string>& args) {
  if (args.size() < 2)
    throw std::invalid_argument("merge wants OUT and at least one IN");
  Snapshot merged = read_snapshot(args[1]);
  for (std::size_t i = 2; i < args.size(); ++i)
    merged.merge(read_snapshot(args[i]));
  write_snapshot(merged, args[0]);
  return 0;
}

int cmd_diff(const std::vector<std::string>& args) {
  if (args.size() != 2) throw std::invalid_argument("diff wants OLD and NEW");
  const Snapshot before = read_snapshot(args[0]);
  const Snapshot after = read_snapshot(args[1]);
  const double seconds =
      static_cast<double>(after.unix_ns - before.unix_ns) * 1e-9;
  if (seconds > 0)
    std::printf("# interval: %.3fs\n", seconds);
  else
    std::printf("# interval: unknown (snapshots carry no timestamps)\n");
  std::printf("%-40s %14s %14s %14s %12s\n", "counter", "old", "new", "delta",
              "rate/s");
  // Union of names, in the sorted order the maps already keep.
  std::vector<std::string> names;
  for (const auto& [name, value] : before.counters) names.push_back(name);
  for (const auto& [name, value] : after.counters)
    if (!before.counters.count(name)) names.push_back(name);
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const std::uint64_t oldv = before.counter(name);
    const std::uint64_t newv = after.counter(name);
    const double delta =
        static_cast<double>(newv) - static_cast<double>(oldv);
    std::printf("%-40s %14llu %14llu %+14.0f", name.c_str(),
                static_cast<unsigned long long>(oldv),
                static_cast<unsigned long long>(newv), delta);
    if (seconds > 0)
      std::printf(" %12.2f", delta / seconds);
    else
      std::printf(" %12s", "-");
    std::printf("\n");
  }
  return 0;
}

int cmd_top(const std::vector<std::string>& args) {
  std::size_t n = 10;
  std::string path;
  if (args.size() == 1) {
    path = args[0];
  } else if (args.size() == 2) {
    n = static_cast<std::size_t>(std::stoul(args[0]));
    path = args[1];
  } else {
    throw std::invalid_argument("top wants [N] IN");
  }
  const Snapshot snap = read_snapshot(path);

  std::vector<std::pair<std::string, std::uint64_t>> counters(
      snap.counters.begin(), snap.counters.end());
  std::stable_sort(counters.begin(), counters.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  std::printf("top counters:\n");
  for (std::size_t i = 0; i < std::min(n, counters.size()); ++i)
    std::printf("  %-40s %14llu\n", counters[i].first.c_str(),
                static_cast<unsigned long long>(counters[i].second));

  std::vector<std::pair<std::string, const hgc::RunningStats*>> stats;
  for (const auto& [name, s] : snap.stats) stats.emplace_back(name, &s);
  std::stable_sort(stats.begin(), stats.end(),
                   [](const auto& a, const auto& b) {
                     return a.second->sum() > b.second->sum();
                   });
  if (!stats.empty()) std::printf("top time sinks (stat sums):\n");
  for (std::size_t i = 0; i < std::min(n, stats.size()); ++i)
    std::printf("  %-40s sum %.6g over %llu obs (mean %.6g)\n",
                stats[i].first.c_str(), stats[i].second->sum(),
                static_cast<unsigned long long>(stats[i].second->count()),
                stats[i].second->mean());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty() || args[0] == "--help" || args[0] == "help") {
      print_usage(args.empty() ? std::cerr : std::cout);
      return args.empty() ? 2 : 0;
    }
    const std::string command = args[0];
    args.erase(args.begin());
    if (command == "merge") return cmd_merge(args);
    if (command == "diff") return cmd_diff(args);
    if (command == "top") return cmd_top(args);
    print_usage(std::cerr);
    throw std::invalid_argument("unknown command: " + command);
  } catch (const std::exception& e) {
    std::cerr << "hgc_obs: " << e.what() << "\n";
    return 1;
  }
}
