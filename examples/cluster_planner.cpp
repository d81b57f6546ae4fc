// Cluster planner: given a cluster (Table II preset or a custom vCPU list)
// and a straggler budget, print the heterogeneity-aware allocation, the
// detected groups, and the predicted iteration time of every scheme.
// The worst case checks every s-straggler pattern while C(m, s) fits the
// pattern budget and samples that many patterns beyond it.
//
//   ./examples/cluster_planner --cluster A --s 1
//   ./examples/cluster_planner --vcpus 2,2,8,16 --s 1 --k 28
#include <iostream>
#include <sstream>
#include <string>

#include "core/group_based.hpp"
#include "core/robustness.hpp"
#include "core/scheme_factory.hpp"
#include "sim/experiment.hpp"
#include "util/args.hpp"
#include "util/checked_cast.hpp"
#include "util/table.hpp"

namespace {

// C(58, 3): the worst case stays exhaustive on every Table II cluster up to
// s = 3, and a large custom cluster costs at most this many decode probes.
constexpr std::size_t kPatternBudget = 30856;

hgc::Cluster select_cluster(const hgc::Args& args) {
  const std::string vcpus = args.get("vcpus", "");
  if (!vcpus.empty()) {
    std::vector<hgc::WorkerSpec> workers;
    std::stringstream ss(vcpus);
    std::string token;
    while (std::getline(ss, token, ',')) {
      const unsigned v = static_cast<unsigned>(std::stoul(token));
      workers.push_back({v, static_cast<double>(v)});
    }
    return hgc::Cluster("custom", std::move(workers));
  }
  const std::string name = args.get("cluster", "A");
  if (name == "A") return hgc::cluster_a();
  if (name == "B") return hgc::cluster_b();
  if (name == "C") return hgc::cluster_c();
  if (name == "D") return hgc::cluster_d();
  throw std::invalid_argument("unknown cluster: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hgc;
  Args args(argc, argv);
  const Cluster cluster = select_cluster(args);
  const auto s = checked_cast<std::size_t>(args.get_int("s", 1));
  auto k = checked_cast<std::size_t>(args.get_int("k", 0));
  args.check_unused();
  if (k == 0) k = exact_partition_count(cluster, s);

  std::cout << cluster.name() << ": " << cluster.size()
            << " workers, total throughput " << cluster.total_throughput()
            << ", heterogeneity ratio mean/min = "
            << cluster.heterogeneity_ratio() << "\n";
  std::cout << "Plan: k = " << k << " partitions, s = " << s
            << " stragglers tolerated\n\n";

  Rng rng(7);
  const Throughputs c = cluster.throughputs();
  GroupBasedScheme group(c, k, s, rng);

  std::cout << "Allocation (worker: vCPUs -> partitions):\n";
  for (WorkerId w = 0; w < cluster.size(); ++w)
    std::cout << "  W" << w << ": " << cluster.worker(w).vcpus << " vCPUs -> "
              << group.load(w) << " partitions\n";

  std::cout << "\nGroups detected (decode by plain summation, Alg. 2): "
            << group.groups().size() << "\n";
  for (const Group& g : group.groups()) {
    std::cout << "  {";
    for (std::size_t i = 0; i < g.size(); ++i)
      std::cout << (i ? "," : "") << "W" << g[i];
    std::cout << "} — " << g.size() << " results suffice\n";
  }

  std::cout << "\nPredicted iteration time (fraction of one dataset pass):\n";
  TablePrinter table({"scheme", "no stragglers", "worst case (s hit)"});
  bool sampled = false;
  for (SchemeKind kind : paper_schemes()) {
    Rng build_rng(7);
    const auto scheme = make_scheme(kind, c, k, s, build_rng);
    const double kk = static_cast<double>(scheme->num_partitions());
    const auto clean = completion_time(*scheme, c, {});
    const RobustnessEstimate worst =
        estimate_worst_case_time(*scheme, c, kPatternBudget, /*seed=*/7);
    sampled = sampled || !worst.exhaustive;
    std::string worst_cell = "fail";
    if (worst.undecodable == 0)
      worst_cell = (worst.exhaustive ? "" : ">=") +
                   TablePrinter::num(worst.worst_time / kk, 5);
    table.add_row({scheme->name(),
                   clean ? TablePrinter::num(*clean / kk, 5) : "fail",
                   worst_cell});
  }
  table.print(std::cout);
  if (sampled)
    std::cout << "(worst case sampled: C(" << cluster.size() << ", " << s
              << ") exceeds " << kPatternBudget
              << " patterns, so \">=\" marks a lower bound)\n";
  std::cout << "\nTheorem 5 optimum: "
            << TablePrinter::num(
                   optimal_time_bound(c, k, s) / static_cast<double>(k), 5)
            << "\n";
  return 0;
}
