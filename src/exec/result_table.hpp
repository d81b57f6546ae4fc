// Aggregated sweep output.
//
// run_sweep() assembles one ResultRow per cell, in cell-index order, on the
// calling thread — so the table's contents are bit-identical at any thread
// count. A row carries three kinds of values: plain scalar metrics,
// mergeable RunningStats accumulators, and mergeable ReservoirQuantiles
// (the latter two let aggregate_over() combine per-seed partials exactly
// instead of averaging averages). CSV and JSON exports are byte-stable:
// doubles render via a fixed shortest-round-trip format, columns follow
// first-appearance order across rows.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hpp"
#include "util/table.hpp"

namespace hgc::exec {

/// One sweep cell's outcome: its coordinates plus everything it measured.
struct ResultRow {
  /// (axis name, axis value) pairs identifying the cell, in axis order.
  std::vector<std::pair<std::string, std::string>> axes;
  /// Scalar metrics (counts, ratios, one-off values).
  std::vector<std::pair<std::string, double>> metrics;
  /// Mergeable accumulators; exported as <name>_mean / <name>_stddev /
  /// <name>_count columns.
  std::vector<std::pair<std::string, RunningStats>> stats;
  /// Mergeable quantile sketches; exported as <name>_p50/_p95/_p99 columns.
  std::vector<std::pair<std::string, ReservoirQuantiles>> quantiles;
  /// Non-empty marks a degenerate cell ("fail", an exception message, ...);
  /// pivots print it in place of the value.
  std::string note;

  const std::string* axis(const std::string& name) const;
  /// Look up a value by column name: plain metric, then stat (mean, or the
  /// _mean/_stddev/_count suffixes), then quantile (_p50/_p95/_p99).
  /// Returns false when the row has no such column.
  bool value(const std::string& name, double& out) const;
};

/// Ordered collection of sweep rows with deterministic exports.
class ResultTable {
 public:
  void add_row(ResultRow row) { rows_.push_back(std::move(row)); }

  std::size_t size() const { return rows_.size(); }
  const std::vector<ResultRow>& rows() const { return rows_; }
  const ResultRow& row(std::size_t i) const { return rows_.at(i); }

  /// Column names in export order: axes, then metric/stat/quantile columns
  /// in first-appearance order.
  std::vector<std::string> columns() const;

  /// Byte-stable CSV: header row, then one line per row; missing columns
  /// render empty, a non-empty note lands in a trailing `note` column.
  void to_csv(std::ostream& os) const;

  /// Byte-stable JSON: array of {axes: {...}, metrics: {...}, note?} objects.
  void to_json(std::ostream& os) const;

  /// Figure-style view: rows keyed by `row_axis`, one column per value of
  /// `col_axis`, cells showing `metric` (or the row's note when set). Rows
  /// and columns appear in first-appearance order.
  TablePrinter pivot(const std::string& row_axis, const std::string& col_axis,
                     const std::string& metric, int precision = 4) const;

  /// Collapse `axis` (typically "seed"): rows agreeing on every other axis
  /// merge into one — stats and quantiles via their exact merge() (so the
  /// combined mean/stddev equals one pass over all the samples), plain
  /// metrics into a RunningStats over the per-row values reported as the
  /// mean. Performed serially in row order: deterministic.
  ResultTable aggregate_over(const std::string& axis) const;

  /// First row matching every (axis, value) constraint, or nullptr.
  const ResultRow* find(
      const std::vector<std::pair<std::string, std::string>>& where) const;

  /// Shortest round-trip decimal rendering of a double ("%.17g trimmed"):
  /// the single formatting used by CSV/JSON so exports compare bytewise.
  static std::string format_double(double v);

 private:
  std::vector<ResultRow> rows_;
};

}  // namespace hgc::exec
