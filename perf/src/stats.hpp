// Order statistics with the benchmark's sample-count rule.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perf {

/// A metric's value and the number of samples behind it.
struct Figure {
  double value = 0.0;
  std::int64_t samples = 0;
};
using Figures = std::map<std::string, Figure>;

/// Nearest-rank percentile `pct` (1..99) of `samples`: the value at rank
/// ceil(pct * n / 100). Throws std::invalid_argument unless at least ten
/// samples lie beyond that rank, so p90 needs 100 samples and p50 needs 20.
double percentile(std::vector<double> samples, int pct);

/// Median of a non-empty sample (mean of the two middle values for an
/// even count). Carries no sample-count rule: it summarizes small repeat
/// counts such as the cold set-ups of one run.
double median(std::vector<double> samples);

}  // namespace perf
