#include "stats.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace perf {

double percentile(std::vector<double> samples, int pct) {
  if (pct < 1 || pct > 99)
    throw std::invalid_argument("percentile must lie in 1..99");
  const auto n = static_cast<std::int64_t>(samples.size());
  const std::int64_t rank = (pct * n + 99) / 100;  // ceil(pct * n / 100)
  if (n - rank < 10)
    throw std::invalid_argument(
        "p" + std::to_string(pct) + " of " + std::to_string(n) +
        " samples has fewer than 10 samples beyond it");
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[static_cast<std::size_t>(rank - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace perf
