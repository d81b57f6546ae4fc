// Per-worker delay traces for trace-replay scenarios.
//
// Instead of drawing straggler conditions from a stochastic model, a replay
// run feeds the engine delays recorded from a real cluster (or crafted by
// hand). The on-disk format is plain CSV: one row per iteration, one column
// per worker, each cell the finite delay in seconds added to that worker's
// result that iteration. A negative cell marks a fail-stop fault (the result
// never arrives — the paper's "delay = infinity" limit). Lines starting with
// '#' and blank lines are skipped, so traces can carry their own provenance
// notes. Replays longer than the trace wrap around to the first row.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "cluster/straggler.hpp"

namespace hgc::engine {

/// A recorded (iterations × workers) delay schedule.
class DelayTrace {
 public:
  DelayTrace() = default;
  /// Rows must be non-empty and rectangular, and every value finite.
  explicit DelayTrace(std::vector<std::vector<double>> rows);

  std::size_t num_iterations() const { return rows_.size(); }
  std::size_t num_workers() const {
    return rows_.empty() ? 0 : rows_.front().size();
  }

  /// Recorded value for (iteration, worker); `iteration` wraps around the
  /// trace length. Negative = fault.
  double at(std::size_t iteration, WorkerId w) const;

  /// Conditions for one replayed iteration: unit speed factors, the traced
  /// delays, faults where the trace is negative.
  IterationConditions conditions(std::size_t iteration) const;

  const std::vector<std::vector<double>>& rows() const { return rows_; }

 private:
  std::vector<std::vector<double>> rows_;
};

/// Parse the CSV format described above. Throws std::invalid_argument on
/// ragged rows, unparseable or non-finite cells, or an empty trace.
DelayTrace parse_delay_trace_csv(std::istream& in);

/// Load a trace from a CSV file; throws std::invalid_argument when the file
/// cannot be opened.
DelayTrace load_delay_trace_csv(const std::string& path);

/// Serialize back to CSV (round-trips through parse_delay_trace_csv).
void write_delay_trace_csv(const DelayTrace& trace, std::ostream& out);

}  // namespace hgc::engine
