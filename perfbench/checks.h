// Correctness checks of the benchmark, computed apart from the program.
//
// Every check returns "" when it passes and a reason when it fails. The
// benchmark also feeds each check a deliberately corrupted copy of its real
// input (a served score one ulp off, two runtimes swapped, a tuned runtime
// above the default) and requires the check to reject it, so a check that
// cannot fail is itself a failure.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

// One test kernel of the tile-size task: the model's score and the
// simulator's measured runtime for each of its tile configs.
struct ScoredKernel {
  int program = 0;               // index into the per-program results
  std::vector<double> scores;    // lower = predicted faster
  std::vector<double> runtimes;  // seconds
};

// One fusion-task kernel the evaluation counted.
struct PredictedSample {
  int program = 0;
  double predicted = 0;  // seconds
  double runtime = 0;    // seconds, measured
};

// Tile-Size APE (paper Eq. 2) per program: the runtime gap between the
// model's choice and the best config, over the sum of best runtimes, in %.
std::vector<double> TileApeByProgram(std::span<const ScoredKernel> kernels,
                                     int programs);
// Mean absolute percentage error per program.
std::vector<double> MapeByProgram(std::span<const PredictedSample> samples,
                                  int programs);

// Each recomputed value matches the reported one to 1e-9 relative.
std::string CheckSameValues(std::span<const double> recomputed,
                            std::span<const double> reported);
// value < limit.
std::string CheckBelow(double value, double limit, const std::string& what);
// served[i] and direct[i] have identical bits.
std::string CheckBitIdentical(std::span<const double> served,
                              std::span<const double> direct);
// Every issued request was accepted and resolved exactly one way, and
// every one completed.
struct ServeCounts {
  std::uint64_t issued = 0;     // PredictAsync calls the benchmark made
  std::uint64_t requests = 0;   // ServiceStats fields
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t answered = 0;   // futures the benchmark saw resolve a value
};
std::string CheckServeCounts(const ServeCounts& counts);
// A tuned program runtime is no slower than the compiler default.
std::string CheckNotSlower(double tuned_sec, double default_sec);
// Exhaustive search is at least as fast as a model-guided mode.
std::string CheckAtLeast(double exhaustive_speedup, double mode_speedup);

// The same value one ulp above.
double OneUlpUp(double value);

}  // namespace perfbench
