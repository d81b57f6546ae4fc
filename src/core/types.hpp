// Shared vocabulary types for the gradient-coding layer.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace hgc {

/// Index of a worker in [0, m).
using WorkerId = std::size_t;

/// Index of a data partition in [0, k).
using PartitionId = std::size_t;

/// Data-partition assignment: assignment[i] lists the partitions held by
/// worker i, sorted ascending. This is supp(b_i) in the paper's notation.
using Assignment = std::vector<std::vector<PartitionId>>;

/// A set of workers believed to be stragglers (the paper's S).
using StragglerSet = std::vector<WorkerId>;

/// Per-worker throughputs c_i: data partitions a worker can process per unit
/// time (estimated by sampling in the paper, Section III-C).
using Throughputs = std::vector<double>;

/// Render an assignment as e.g. "W0:{0,1} W1:{2}" for diagnostics.
std::string to_string(const Assignment& assignment);

/// Count how many flags are set.
std::size_t count_received(const std::vector<bool>& received);

}  // namespace hgc
