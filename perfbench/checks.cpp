#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace perfbench {
namespace {

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::vector<double> TileApeByProgram(std::span<const ScoredKernel> kernels,
                                     int programs) {
  std::vector<double> gap(static_cast<std::size_t>(programs), 0.0);
  std::vector<double> best_total(static_cast<std::size_t>(programs), 0.0);
  for (const ScoredKernel& k : kernels) {
    // The first lowest score is the model's choice.
    std::size_t chosen = 0;
    for (std::size_t c = 1; c < k.scores.size(); ++c) {
      if (k.scores[c] < k.scores[chosen]) chosen = c;
    }
    const double best = *std::min_element(k.runtimes.begin(), k.runtimes.end());
    const auto p = static_cast<std::size_t>(k.program);
    gap[p] += std::abs(k.runtimes[chosen] - best);
    best_total[p] += best;
  }
  std::vector<double> ape(static_cast<std::size_t>(programs), 0.0);
  for (std::size_t p = 0; p < ape.size(); ++p) {
    if (best_total[p] > 0) ape[p] = 100.0 * gap[p] / best_total[p];
  }
  return ape;
}

std::vector<double> MapeByProgram(std::span<const PredictedSample> samples,
                                  int programs) {
  std::vector<double> total(static_cast<std::size_t>(programs), 0.0);
  std::vector<int> count(static_cast<std::size_t>(programs), 0);
  for (const PredictedSample& s : samples) {
    if (s.runtime <= 0) continue;
    const auto p = static_cast<std::size_t>(s.program);
    total[p] += std::abs(s.predicted - s.runtime) / s.runtime;
    ++count[p];
  }
  std::vector<double> mape(static_cast<std::size_t>(programs), 0.0);
  for (std::size_t p = 0; p < mape.size(); ++p) {
    if (count[p] > 0) mape[p] = 100.0 * total[p] / count[p];
  }
  return mape;
}

std::string CheckSameValues(std::span<const double> recomputed,
                            std::span<const double> reported) {
  if (recomputed.size() != reported.size()) {
    return "recomputed " + std::to_string(recomputed.size()) +
           " values, the program reported " +
           std::to_string(reported.size());
  }
  for (std::size_t i = 0; i < recomputed.size(); ++i) {
    const double scale = std::max(1.0, std::abs(reported[i]));
    if (!(std::abs(recomputed[i] - reported[i]) <= 1e-9 * scale)) {
      return "value " + std::to_string(i) + ": recomputed " +
             Num(recomputed[i]) + ", the program reported " +
             Num(reported[i]);
    }
  }
  return "";
}

std::string CheckBelow(double value, double limit, const std::string& what) {
  if (value < limit) return "";
  return what + ": " + Num(value) + " is not below " + Num(limit);
}

std::string CheckBitIdentical(std::span<const double> served,
                              std::span<const double> direct) {
  if (served.size() != direct.size()) return "length mismatch";
  for (std::size_t i = 0; i < served.size(); ++i) {
    if (std::memcmp(&served[i], &direct[i], sizeof(double)) != 0) {
      return "item " + std::to_string(i) + ": served " + Num(served[i]) +
             ", direct " + Num(direct[i]);
    }
  }
  return "";
}

std::string CheckServeCounts(const ServeCounts& c) {
  if (c.requests != c.completed + c.failed + c.shed + c.expired) {
    return "requests " + std::to_string(c.requests) + " != completed " +
           std::to_string(c.completed) + " + failed " +
           std::to_string(c.failed) + " + shed " + std::to_string(c.shed) +
           " + expired " + std::to_string(c.expired);
  }
  if (c.requests != c.issued || c.completed != c.issued ||
      c.answered != c.issued) {
    return "issued " + std::to_string(c.issued) + ", accepted " +
           std::to_string(c.requests) + ", completed " +
           std::to_string(c.completed) + ", answered " +
           std::to_string(c.answered);
  }
  return "";
}

std::string CheckNotSlower(double tuned_sec, double default_sec) {
  if (tuned_sec <= default_sec) return "";
  return "tuned runtime " + Num(tuned_sec) + " s is above the default " +
         Num(default_sec) + " s";
}

std::string CheckAtLeast(double exhaustive_speedup, double mode_speedup) {
  if (exhaustive_speedup >= mode_speedup) return "";
  return "exhaustive speedup " + Num(exhaustive_speedup) +
         " is below a model-guided " + Num(mode_speedup);
}

double OneUlpUp(double value) {
  return std::nextafter(value, std::numeric_limits<double>::infinity());
}

}  // namespace perfbench
