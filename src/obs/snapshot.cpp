// Snapshot serialization and fleet folding: exact JSON round-trip and the
// associative merge. Kept apart from metrics.cpp so the registry's hot-path
// translation unit stays free of formatting code.
//
// Exactness contract: write_json emits 64-bit integers as plain integer
// tokens and doubles in std::to_chars shortest-round-trip form, so
// read_json(write_json(s)) == s to the bit — including counters past 2^53
// and the reservoir's splitmix64 state. read_json is strict: it accepts the
// shape write_json writes and throws naming the section and instrument of
// anything else.
#include "obs/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "obs/json.hpp"

namespace hgc::obs {

std::uint64_t HistogramSnapshot::total() const {
  std::uint64_t n = 0;
  for (std::uint64_t c : counts) n += c;
  return n;
}

std::uint64_t Snapshot::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double Snapshot::gauge(const std::string& name) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second.value;
}

// ------------------------------------------------------------ json writer --

namespace {

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_json_double(std::ostream& os, double v) {
  // JSON has no Infinity/NaN; null keeps the file parseable (and reads
  // back as 0 — metrics values are finite in practice).
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  os.write(buf, result.ptr - buf);
}

double json_number(const JsonValue& v) {
  if (v.type == JsonValue::Type::kNull) return 0.0;  // non-finite placeholder
  if (v.type != JsonValue::Type::kNumber)
    throw std::runtime_error("expected a number");
  return v.number;
}

/// The array under `key`; throws naming the key when it is anything else.
const std::vector<JsonValue>& array_at(const JsonValue& v, const char* key) {
  const JsonValue& a = v.at(key);
  if (a.type != JsonValue::Type::kArray)
    throw std::runtime_error(std::string("\"") + key + "\" must be an array");
  return a.array;
}

/// Calls read(name, entry) for every instrument of one section (counters,
/// gauges, ...); an error comes back naming the section and the instrument:
/// `snapshot: gauges."mem.rss": expected an object`.
template <typename Read>
void read_section(const JsonValue& root, const std::string& section,
                  Read read) {
  const auto it = root.object.find(section);
  if (it == root.object.end() || it->second.type != JsonValue::Type::kObject)
    throw std::runtime_error("snapshot: \"" + section + "\" must be an object");
  for (const auto& [name, v] : it->second.object) {
    try {
      read(name, v);
    } catch (const std::exception& e) {
      throw std::runtime_error("snapshot: " + section + ".\"" + name +
                               "\": " + e.what());
    }
  }
}

}  // namespace

void Snapshot::write_json(std::ostream& os, bool compact) const {
  // Pretty output puts one instrument per line; compact (the recorder's
  // JSONL row format) collapses all whitespace. Same tokens either way.
  const char* nl = compact ? "" : "\n";
  const char* ind1 = compact ? "" : "  ";
  const char* ind2 = compact ? "" : "    ";
  const char* co = compact ? ":" : ": ";

  os << '{' << nl;
  os << ind1 << "\"snapshot_unix_ns\"" << co << unix_ns << ',' << nl;

  os << ind1 << "\"counters\"" << co << '{';
  const char* sep = "";
  for (const auto& [name, value] : counters) {
    os << sep << nl << ind2;
    write_json_string(os, name);
    os << co << value;
    sep = ",";
  }
  os << (counters.empty() ? "" : nl) << (counters.empty() ? "" : ind1) << "},"
     << nl;

  os << ind1 << "\"gauges\"" << co << '{';
  sep = "";
  for (const auto& [name, g] : gauges) {
    os << sep << nl << ind2;
    write_json_string(os, name);
    os << co << "{\"value\"" << co;
    write_json_double(os, g.value);
    os << (compact ? "," : ", ") << "\"ts_unix_ns\"" << co << g.ts_unix_ns
       << '}';
    sep = ",";
  }
  os << (gauges.empty() ? "" : nl) << (gauges.empty() ? "" : ind1) << "},"
     << nl;

  const char* isp = compact ? "," : ", ";

  os << ind1 << "\"histograms\"" << co << '{';
  sep = "";
  for (const auto& [name, h] : histograms) {
    os << sep << nl << ind2;
    write_json_string(os, name);
    os << co << "{\"bounds\"" << co << '[';
    const char* isep = "";
    for (double b : h.bounds) {
      os << isep;
      write_json_double(os, b);
      isep = isp;
    }
    os << "]" << isp << "\"counts\"" << co << '[';
    isep = "";
    for (std::uint64_t c : h.counts) {
      os << isep << c;
      isep = isp;
    }
    os << "]" << isp << "\"sum\"" << co;
    write_json_double(os, h.sum);
    os << isp << "\"total\"" << co << h.total() << '}';
    sep = ",";
  }
  os << (histograms.empty() ? "" : nl) << (histograms.empty() ? "" : ind1)
     << "}," << nl;

  os << ind1 << "\"stats\"" << co << '{';
  sep = "";
  for (const auto& [name, s] : stats) {
    os << sep << nl << ind2;
    write_json_string(os, name);
    os << co << "{\"count\"" << co << s.count() << isp << "\"mean\"" << co;
    write_json_double(os, s.mean());
    os << isp << "\"m2\"" << co;
    write_json_double(os, s.m2());
    os << isp << "\"min\"" << co;
    write_json_double(os, s.min());
    os << isp << "\"max\"" << co;
    write_json_double(os, s.max());
    // Derived, ignored by read_json — kept for humans reading the file.
    os << isp << "\"stddev\"" << co;
    write_json_double(os, s.stddev());
    os << '}';
    sep = ",";
  }
  os << (stats.empty() ? "" : nl) << (stats.empty() ? "" : ind1) << "},"
     << nl;

  os << ind1 << "\"quantiles\"" << co << '{';
  sep = "";
  for (const auto& [name, q] : quantiles) {
    os << sep << nl << ind2;
    write_json_string(os, name);
    os << co << "{\"count\"" << co << q.count() << isp << "\"capacity\"" << co
       << q.capacity() << isp << "\"state\"" << co << q.rng_state() << isp
       << "\"sample\"" << co << '[';
    const char* isep = "";
    for (double x : q.retained()) {
      os << isep;
      write_json_double(os, x);
      isep = isp;
    }
    os << ']';
    if (q.count() > 0) {
      // Derived, ignored by read_json.
      os << isp << "\"p50\"" << co;
      write_json_double(os, q.p50());
      os << isp << "\"p95\"" << co;
      write_json_double(os, q.p95());
      os << isp << "\"p99\"" << co;
      write_json_double(os, q.p99());
    }
    os << '}';
    sep = ",";
  }
  os << (quantiles.empty() ? "" : nl) << (quantiles.empty() ? "" : ind1)
     << '}' << nl;

  os << '}';
  if (!compact) os << '\n';
}

// ------------------------------------------------------------ json reader --

Snapshot Snapshot::read_json(const std::string& text) {
  const JsonValue root = parse_json(text);
  if (root.type != JsonValue::Type::kObject)
    throw std::runtime_error("snapshot: top level must be an object");

  Snapshot s;
  s.unix_ns = root.at("snapshot_unix_ns").as_i64();

  read_section(root, "counters", [&](const auto& name, const auto& v) {
    s.counters[name] = v.as_u64();
  });

  read_section(root, "gauges", [&](const auto& name, const auto& v) {
    s.gauges[name] = GaugeSnapshot{json_number(v.at("value")),
                                   v.at("ts_unix_ns").as_i64()};
  });

  read_section(root, "histograms", [&](const auto& name, const auto& v) {
    HistogramSnapshot h;
    for (const JsonValue& b : array_at(v, "bounds"))
      h.bounds.push_back(json_number(b));
    for (const JsonValue& c : array_at(v, "counts"))
      h.counts.push_back(c.as_u64());
    if (h.counts.size() != h.bounds.size() + 1)
      throw std::runtime_error("counts/bounds size mismatch");
    h.sum = json_number(v.at("sum"));
    s.histograms[name] = std::move(h);
  });

  read_section(root, "stats", [&](const auto& name, const auto& v) {
    s.stats[name] = RunningStats::from_parts(
        v.at("count").as_u64(), json_number(v.at("mean")),
        json_number(v.at("m2")), json_number(v.at("min")),
        json_number(v.at("max")));
  });

  read_section(root, "quantiles", [&](const auto& name, const auto& v) {
    std::vector<double> sample;
    for (const JsonValue& x : array_at(v, "sample"))
      sample.push_back(json_number(x));
    s.quantiles.emplace(
        name, ReservoirQuantiles::from_parts(
                  v.at("capacity").as_u64(), v.at("state").as_u64(),
                  v.at("count").as_u64(), std::move(sample)));
  });

  return s;
}

// ------------------------------------------------------------------ merge --

void Snapshot::merge(const Snapshot& other) {
  unix_ns = std::max(unix_ns, other.unix_ns);

  for (const auto& [name, v] : other.counters) counters[name] += v;

  for (const auto& [name, g] : other.gauges) {
    const auto [it, inserted] = gauges.emplace(name, g);
    if (inserted) continue;
    // Last-write-wins by snapshot time; ties break toward the larger value
    // so the resolution is a total order and merge stays commutative.
    if (std::tie(g.ts_unix_ns, g.value) >
        std::tie(it->second.ts_unix_ns, it->second.value))
      it->second = g;
  }

  for (const auto& [name, h] : other.histograms) {
    const auto [it, inserted] = histograms.emplace(name, h);
    if (inserted) continue;
    if (it->second.bounds != h.bounds)
      throw std::invalid_argument("snapshot: histogram '" + name +
                                  "' merged with different bucket bounds");
    for (std::size_t b = 0; b < h.counts.size(); ++b)
      it->second.counts[b] += h.counts[b];
    it->second.sum += h.sum;
  }

  for (const auto& [name, st] : other.stats) stats[name].merge(st);

  for (const auto& [name, q] : other.quantiles) {
    // emplace a copy rather than merging into a default-constructed
    // reservoir: the copy preserves the operand's capacity and stream state.
    const auto [it, inserted] = quantiles.emplace(name, q);
    if (!inserted) it->second.merge(q);
  }
}

}  // namespace hgc::obs
