#pragma once
//
// Order statistics over repeats, matching Python's
// statistics.quantiles(values, n=4) (its default "exclusive" method), so the
// quartiles in a record agree with how the runs are compared afterwards.
//
#include <algorithm>
#include <vector>

namespace perfbench {

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  int n = 0;
};

inline Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  q.n = static_cast<int>(v.size());
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    q.q1 = q.median = q.q3 = v[0];
    return q;
  }
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double cut[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                  v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = cut[0];
  q.q3 = cut[2];
  // The middle cut point of the exclusive method is the ordinary median.
  const std::size_t mid = v.size() / 2;
  q.median = v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
  return q;
}

inline double median(std::vector<double> v) { return quartiles(std::move(v)).median; }

}  // namespace perfbench
