#include "engine/delay_trace.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/error.hpp"

namespace hgc::engine {

DelayTrace::DelayTrace(std::vector<std::vector<double>> rows)
    : rows_(std::move(rows)) {
  HGC_REQUIRE(!rows_.empty(), "a delay trace needs at least one iteration");
  const std::size_t width = rows_.front().size();
  HGC_REQUIRE(width > 0, "a delay trace needs at least one worker");
  for (const auto& row : rows_) {
    HGC_REQUIRE(row.size() == width, "delay trace rows must be rectangular");
    for (double value : row)
      HGC_REQUIRE(std::isfinite(value), "delay trace values must be finite");
  }
}

double DelayTrace::at(std::size_t iteration, WorkerId w) const {
  HGC_REQUIRE(!rows_.empty(), "empty delay trace");
  HGC_REQUIRE(w < num_workers(), "worker id out of trace range");
  return rows_[iteration % rows_.size()][w];
}

IterationConditions DelayTrace::conditions(std::size_t iteration) const {
  HGC_REQUIRE(!rows_.empty(), "empty delay trace");
  const auto& row = rows_[iteration % rows_.size()];
  const std::size_t m = row.size();
  IterationConditions conditions;
  conditions.speed_factor.assign(m, 1.0);
  conditions.delay.assign(m, 0.0);
  conditions.faulted.assign(m, false);
  for (WorkerId w = 0; w < m; ++w) {
    if (row[w] < 0.0)
      conditions.faulted[w] = true;
    else
      conditions.delay[w] = row[w];
  }
  return conditions;
}

DelayTrace parse_delay_trace_csv(std::istream& in) {
  std::vector<std::vector<double>> rows;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Trim a trailing carriage return so CRLF traces parse too.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;

    std::vector<double> row;
    std::stringstream cells(line);
    std::string cell;
    while (std::getline(cells, cell, ',')) {
      std::size_t consumed = 0;
      double value = 0.0;
      bool ok = true;
      try {
        value = std::stod(cell, &consumed);
      } catch (const std::exception&) {
        ok = false;
      }
      if (ok && consumed < cell.size())
        ok = cell.find_first_not_of(" \t", consumed) == std::string::npos;
      // std::stod also reads nan, inf and infinity; none is a delay.
      ok = ok && std::isfinite(value);
      HGC_REQUIRE(ok, "unparseable delay cell '" + cell + "' on line " +
                          std::to_string(line_number));
      row.push_back(value);
    }
    HGC_REQUIRE(!row.empty(),
                "empty delay row on line " + std::to_string(line_number));
    HGC_REQUIRE(rows.empty() || row.size() == rows.front().size(),
                "ragged delay row on line " + std::to_string(line_number));
    rows.push_back(std::move(row));
  }
  return DelayTrace(std::move(rows));
}

DelayTrace load_delay_trace_csv(const std::string& path) {
  std::ifstream in(path);
  HGC_REQUIRE(in.good(), "cannot open delay trace file: " + path);
  return parse_delay_trace_csv(in);
}

void write_delay_trace_csv(const DelayTrace& trace, std::ostream& out) {
  // Shortest round-trip representation (std::to_chars), not operator<<'s
  // default 6 significant digits: a saved trace must replay the exact same
  // doubles, or the "same trace row drives every scheme" fairness contract
  // quietly breaks after a save/load cycle.
  char buf[32];
  for (const auto& row : trace.rows()) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out << ',';
      const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), row[i]);
      HGC_REQUIRE(ec == std::errc(), "delay value formatting failed");
      out.write(buf, static_cast<std::streamsize>(ptr - buf));
    }
    out << '\n';
  }
}

}  // namespace hgc::engine
