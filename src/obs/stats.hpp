// Run records and their published numbers.
//
// A run record (core::FinderStats, cluster::ClusterRunInfo) declares its
// numbers once, as a list of Stat entries: the name each is published under
// and the member it lives in. Sums, registry publishes, --metrics-json
// reports and read-backs iterate that list, so adding a number to a record
// is one member and one list entry, and no consumer names fields by hand.
//
// A count is published as a registry counter and a report counter; a
// duration as a registry timer and a report metric.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace repro::obs {

template <class Record>
struct Stat {
  constexpr Stat(std::string_view n, std::uint64_t Record::*c)
      : name(n), count(c) {}
  constexpr Stat(std::string_view n, double Record::*s)
      : name(n), seconds(s) {}

  std::string_view name;  ///< published as <prefix><name>
  std::uint64_t Record::*count = nullptr;
  double Record::*seconds = nullptr;  ///< set instead of count for durations
};

/// into += plus - minus over every listed number: a sum of records, or a
/// record's growth since a snapshot.
template <class Record, std::size_t N>
void add(const Stat<Record> (&list)[N], Record& into, const Record& plus,
         const Record& minus = {}) {
  for (const Stat<Record>& s : list) {
    if (s.count != nullptr)
      into.*s.count += plus.*s.count - minus.*s.count;
    else
      into.*s.seconds += plus.*s.seconds - minus.*s.seconds;
  }
}

/// Adds every listed number of `record` to `registry` under `prefix`. No-op
/// when REPRO_OBS is off.
template <class Record, std::size_t N>
void publish(const Stat<Record> (&list)[N], const Record& record,
             std::string_view prefix, Registry& registry = Registry::global()) {
  if constexpr (kEnabled) {
    for (const Stat<Record>& s : list) {
      const std::string key = std::string(prefix) + std::string(s.name);
      if (s.count != nullptr)
        registry.counter(key).add(record.*s.count);
      else
        registry.timer(key).add_seconds(record.*s.seconds);
    }
  }
}

/// The listed numbers `registry` holds under `prefix`: the sum of every
/// record published there (all zero when REPRO_OBS is off).
template <class Record, std::size_t N>
Record published(const Stat<Record> (&list)[N], std::string_view prefix,
                 Registry& registry = Registry::global()) {
  Record total{};
  for (const Stat<Record>& s : list) {
    const std::string key = std::string(prefix) + std::string(s.name);
    if (s.count != nullptr)
      total.*s.count = registry.counter(key).value();
    else
      total.*s.seconds = registry.timer(key).seconds();
  }
  return total;
}

/// Writes every listed number of `record` to `out` under `prefix`.
template <class Record, std::size_t N>
void report(const Stat<Record> (&list)[N], const Record& record,
            MetricsReport& out, std::string_view prefix = {}) {
  for (const Stat<Record>& s : list) {
    const std::string key = std::string(prefix) + std::string(s.name);
    if (s.count != nullptr)
      out.counter(key, record.*s.count);
    else
      out.metric(key, record.*s.seconds);
  }
}

}  // namespace repro::obs
