// perfbench: the repository benchmark. One run builds the datasets, trains
// the two cost models, serves the tile model and autotunes with both, then
// prints every metric by name with its unit and, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload train|serve|autotune --seed N --seconds S
//             --trace 0|1 --out DIR [--git-sha SHA]
//
// Every workload runs the same pipeline, so every run reports every metric;
// the workload decides where the run spends its time:
//   train     trains both models for the full 3,000-step schedule;
//   serve     gives the larger share of --seconds to prediction requests;
//   autotune  gives it to tile-size and fusion autotuning.
// Serving and autotuning interleave over the whole of --seconds (README.md).
//
// --seed draws the order of the serve request mix, the Poisson arrival times
// and the samples of the traced training steps. The corpus, datasets, split
// and model seeds are fixed, so the accuracy figures are the same every run.
//
// Only public functions of dataset, features, core, nn, plan, serve and
// autotuner are called, and every layer is timed from outside, at those
// calls. With --trace 1 the run also records spans around the calls, takes
// the per-layer measurements, writes a Chrome trace file to DIR and prints
// the per-layer metrics instead of the end-to-end ones.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analytical/analytical_model.h"
#include "autotuner/evaluators.h"
#include "autotuner/fusion_tuner.h"
#include "autotuner/tile_tuner.h"
#include "checks.h"
#include "core/cost_model.h"
#include "core/evaluation.h"
#include "core/thread_pool.h"
#include "core/trainer.h"
#include "dataset/datasets.h"
#include "dataset/families.h"
#include "dataset/store.h"
#include "features/featurizer.h"
#include "nn/losses.h"
#include "nn/optimizer.h"
#include "nn/tape.h"
#include "plan/plan.h"
#include "serve/prediction_service.h"
#include "sim/simulator.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace tpuperf;

// ---- Fixed workload parameters ---------------------------------------------

// Thread budget: at most 4 threads at any time (the CPUs of the reference
// host). Pool widths are set here, never from hardware_concurrency().
constexpr int kSetupWidth = 4;   // dataset build: featurization shards
constexpr int kTrainWidth = 1;   // trainers (width 4 is slower, README.md)
constexpr int kServeGlobalWidth = 1;  // PredictBatch inside service workers
// Service pool of 2 = one worker thread; with the batcher, the generator
// (main thread) and the collector that makes 4 threads.
constexpr int kServeServiceThreads = 2;
constexpr int kTuneWidth = 1;    // tuners (width 4 is no faster, README.md)
constexpr int kWidths[] = {1, 2, 4};  // traced width sweep

constexpr int kSetupRepetitions = 3;  // setup_s is their median
constexpr std::uint64_t kSplitSeed = 1234;  // the random split of Table 2
constexpr int kFullTrainSteps = 3000;   // the default schedule
constexpr int kShortTrainSteps = 600;   // models the other workloads use
constexpr double kPoissonRate = 1000.0;  // requests per second
constexpr int kBatch = 32;
constexpr int kTopK = 10;
constexpr int kAnnealSteps = 60;
constexpr std::size_t kMinRounds = 2;  // each timing's best of at least 2
constexpr std::uint64_t kAnnealSeed = 1000;  // Fig 5, run 0
constexpr double kAnnealHardwareBudget = 60;  // 'Cost model + HW 1'
// The six programs of Fig 5.
const char* const kFusionPrograms[] = {"transformer_lm_v1", "char2feats_v0",
                                       "nmt_v3",            "convdraw_v2",
                                       "ranking_v1",        "resnet_v1_v2"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
};

// How a workload spends its run. After set-up and training, the timed
// section lasts --seconds: open-loop Poisson arrivals for the `poisson` share,
// then the four interleaved activities, each for its share of the rest.
struct Plan {
  int rank_steps = kShortTrainSteps;
  int mse_steps = kShortTrainSteps;
  int train_repeats = 1;  // trainings of each model; the fastest counts
  double poisson = 0;
  double direct = 0;     // direct calls and the closed-loop client
  double saturated = 0;  // the whole mix offered at once
  double tile = 0;       // tile-size tuning calls
  double fusion = 0;     // fusion annealing calls
};

Plan PlanFor(const Options& opt) {
  if (opt.workload == "train") {
    return {kFullTrainSteps, kFullTrainSteps, 1, 0.125, 0.4, 0.1, 0.3, 0.2};
  }
  if (opt.workload == "serve") {
    return {kShortTrainSteps, kShortTrainSteps, 2, 0.25, 0.45, 0.15, 0.2, 0.2};
  }
  if (opt.workload == "autotune") {
    return {kShortTrainSteps, kShortTrainSteps, 2, 0.125, 0.3, 0.1, 0.35, 0.25};
  }
  throw std::invalid_argument("unknown workload '" + opt.workload +
                              "' (train, serve or autotune)");
}

// ---- Small helpers -----------------------------------------------------------

Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// Linear-interpolated quantile q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

// A well-mixed seed for stream `stream` of the run seed (splitmix64).
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + stream * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Splits `samples` (in the order taken) into blocks of `block` and returns
// the lowest of the blocks' q-quantiles; a short last block joins the one
// before it. Timings use it because the reference host is shared: other
// tenants stall it for ms at a time, in spells that last seconds, so a whole
// block can read slow. The best block is the one they disturbed least, and
// it moves less from run to run than a median over the whole run.
double BestBlock(const std::vector<double>& samples, std::size_t block,
                 double q) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t begin = 0; begin < samples.size(); begin += block) {
    std::size_t end = std::min(samples.size(), begin + block);
    if (samples.size() - end < block / 2) end = samples.size();
    best = std::min(
        best, Quantile({samples.begin() + static_cast<std::ptrdiff_t>(begin),
                        samples.begin() + static_cast<std::ptrdiff_t>(end)},
                       q));
    if (end == samples.size()) break;
  }
  return samples.empty() ? 0 : best;
}

double GeoMean(const std::vector<double>& v) {
  double acc = 0;
  for (const double x : v) acc += std::log(x);
  return v.empty() ? 0 : std::exp(acc / static_cast<double>(v.size()));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// (steal, total) jiffies of all CPUs from /proc/stat; zeros where absent.
std::pair<double, double> CpuStealAndTotal() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  double v[8] = {};
  const int n = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  return {v[7], v[0] + v[1] + v[2] + v[3] + v[4] + v[5] + v[6] + v[7]};
}

int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::unique_ptr<core::LearnedCostModel> CopyModel(
    const core::LearnedCostModel& model) {
  std::stringstream bytes;
  model.Save(bytes);
  auto copy = std::make_unique<core::LearnedCostModel>(model.config());
  copy->Load(bytes);
  return copy;
}

// Serves the kernel features of every loaded store, so prepare caches and
// trainers never featurize a kernel the store holds.
class StoreFeatureSource final : public feat::KernelFeatureSource {
 public:
  void Set(std::vector<std::shared_ptr<const data::StoredFeatures>> stores) {
    stores_ = std::move(stores);
  }
  const feat::KernelFeatures* Lookup(
      std::uint64_t fingerprint, std::uint64_t structural_sig) const override {
    for (const auto& store : stores_) {
      if (const auto* kf = store->Lookup(fingerprint, structural_sig)) {
        return kf;
      }
    }
    return nullptr;
  }

 private:
  std::vector<std::shared_ptr<const data::StoredFeatures>> stores_;
};

// ---- Run state -----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

struct Run {
  explicit Run(Options o) : opt(std::move(o)), plan(PlanFor(opt)),
                            tracer(opt.trace) {}

  Options opt;
  Plan plan;
  Tracer tracer;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;

  void E2E(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  // A failed check.
  void Check(const std::string& what, const std::string& problem) {
    if (!problem.empty()) problems.push_back(what + ": " + problem);
  }
  // The check must reject the corrupted input it was just given.
  void MustReject(const std::string& what, const std::string& problem) {
    if (problem.empty()) {
      problems.push_back("self-test: " + what +
                         " accepted a deliberately wrong input");
    }
  }
};

// ---- Set-up: datasets through the store ---------------------------------------

struct Setup {
  std::vector<ir::Program> corpus;
  data::SplitSpec split;
  sim::TpuSimulator sim{sim::TpuTarget::V2()};
  data::DatasetOptions options;
  data::TileDataset tile;      // the warm copies
  data::FusionDataset fusion;
  std::shared_ptr<data::StoredFeatures> tile_features;
  std::shared_ptr<data::StoredFeatures> fusion_features;
  double seconds = 0;
  double corpus_s = 0, tile_build_s = 0, fusion_build_s = 0;
  double store_load_s = 0, store_bytes = 0;
  long featurize_calls = 0;
};

std::string CompareTile(const data::TileDataset& cold,
                        const data::TileDataset& warm) {
  if (cold.kernels.size() != warm.kernels.size()) return "kernel count";
  for (std::size_t i = 0; i < cold.kernels.size(); ++i) {
    const auto& a = cold.kernels[i];
    const auto& b = warm.kernels[i];
    if (a.record.fingerprint != b.record.fingerprint ||
        a.record.program_id != b.record.program_id ||
        a.record.family != b.record.family ||
        a.record.kernel.graph.StructuralSignature() !=
            b.record.kernel.graph.StructuralSignature() ||
        a.configs != b.configs || a.runtimes != b.runtimes) {
      return "tile record " + std::to_string(i) + " differs";
    }
  }
  return "";
}

std::string CompareFusion(const data::FusionDataset& cold,
                          const data::FusionDataset& warm) {
  if (cold.samples.size() != warm.samples.size()) return "sample count";
  for (std::size_t i = 0; i < cold.samples.size(); ++i) {
    const auto& a = cold.samples[i];
    const auto& b = warm.samples[i];
    if (a.record.fingerprint != b.record.fingerprint ||
        a.record.program_id != b.record.program_id ||
        a.record.kernel.graph.StructuralSignature() !=
            b.record.kernel.graph.StructuralSignature() ||
        !(a.tile == b.tile) || a.runtime != b.runtime ||
        a.from_default_config != b.from_default_config) {
      return "fusion record " + std::to_string(i) + " differs";
    }
  }
  return "";
}

double DirectoryBytes(const std::string& dir) {
  double bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += static_cast<double>(entry.file_size());
  }
  return bytes;
}

// Builds both TPU v2 datasets cold into a fresh store directory, then loads
// them back warm. Everything downstream uses the warm copies.
Setup SetupOnce(Run& run, const std::string& dir) {
  ScopedSpan span(run.tracer, "bench.setup");
  Setup s;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto start = Clock::now();
  const long featurized_before = feat::FeaturizeKernelInvocations();

  auto t = Clock::now();
  {
    ScopedSpan call(run.tracer, "dataset.generate_corpus");
    s.corpus = data::GenerateCorpus();
    s.split = data::RandomSplit(s.corpus, kSplitSeed);
  }
  s.corpus_s = SecondsSince(t);
  // The budgets of the paper-table benches at scale 1.
  s.options.max_tile_configs_per_kernel = 32;
  s.options.fusion_configs_per_program = 10;
  s.options.corpus_seed = s.options.seed;

  analytical::AnalyticalModel analytical(s.sim.target());
  data::StoreLoadStats tile_stats, fusion_stats;
  std::shared_ptr<data::StoredFeatures> cold_tile_features, cold_fusion_features;
  t = Clock::now();
  data::TileDataset cold_tile;
  {
    ScopedSpan call(run.tracer, "dataset.build_tile");
    cold_tile = data::LoadOrBuildTileDataset(dir, s.corpus, s.sim, s.options,
                                             &cold_tile_features, &tile_stats);
  }
  s.tile_build_s = SecondsSince(t);
  t = Clock::now();
  data::FusionDataset cold_fusion;
  {
    ScopedSpan call(run.tracer, "dataset.build_fusion");
    cold_fusion = data::LoadOrBuildFusionDataset(
        dir, s.corpus, s.sim, analytical, s.options, &cold_fusion_features,
        &fusion_stats);
  }
  s.fusion_build_s = SecondsSince(t);
  run.Check("cold build", tile_stats.cache_hit || fusion_stats.cache_hit
                              ? "the fresh store directory was not empty"
                              : "");
  s.store_bytes = DirectoryBytes(dir);

  const long featurized_cold = feat::FeaturizeKernelInvocations();
  t = Clock::now();
  {
    ScopedSpan call(run.tracer, "dataset.load_tile");
    s.tile = data::LoadOrBuildTileDataset(dir, s.corpus, s.sim, s.options,
                                          &s.tile_features, &tile_stats);
  }
  {
    ScopedSpan call(run.tracer, "dataset.load_fusion");
    s.fusion = data::LoadOrBuildFusionDataset(dir, s.corpus, s.sim, analytical,
                                              s.options, &s.fusion_features,
                                              &fusion_stats);
  }
  s.store_load_s = SecondsSince(t);
  s.seconds = SecondsSince(start);
  s.featurize_calls = feat::FeaturizeKernelInvocations() - featurized_before;

  run.Check("warm reload", !tile_stats.cache_hit || !fusion_stats.cache_hit
                               ? "the reload missed the store"
                               : "");
  const long warm_featurized =
      feat::FeaturizeKernelInvocations() - featurized_cold;
  run.Check("warm reload",
            warm_featurized == 0
                ? ""
                : "featurized " + std::to_string(warm_featurized) + " kernels");
  run.Check("warm reload", CompareTile(cold_tile, s.tile));
  run.Check("warm reload", CompareFusion(cold_fusion, s.fusion));
  run.Check("warm reload",
            cold_tile_features->size() == s.tile_features->size() &&
                    cold_fusion_features->size() == s.fusion_features->size()
                ? ""
                : "featurized record counts differ");
  return s;
}

Setup RunSetup(Run& run, StoreFeatureSource& source) {
  core::ThreadPool::SetNumThreads(kSetupWidth);
  const std::string dir = run.opt.out_dir + "/store";
  std::vector<double> seconds, corpus, tile, fusion, load;
  Setup s;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    s = SetupOnce(run, dir);
    seconds.push_back(s.seconds);
    corpus.push_back(s.corpus_s);
    tile.push_back(s.tile_build_s);
    fusion.push_back(s.fusion_build_s);
    load.push_back(s.store_load_s);
  }
  std::filesystem::remove_all(dir);
  source.Set({s.tile_features, s.fusion_features});
  feat::SetGlobalKernelFeatureSource(&source);

  run.E2E("setup_s", Median(seconds), "s");
  run.Layer("dataset.corpus_s", Median(corpus), "s");
  run.Layer("dataset.tile_build_s", Median(tile), "s");
  run.Layer("dataset.fusion_build_s", Median(fusion), "s");
  run.Layer("dataset.store_load_s", Median(load), "s");
  run.Layer("dataset.store_bytes", s.store_bytes, "bytes");
  run.Layer("features.featurize_calls.setup",
            static_cast<double>(s.featurize_calls), "count");
  run.attempted += kSetupRepetitions;
  return s;
}

// ---- Train: both models from the warm store, then Table 2 accuracy -------------

struct Trained {
  std::unique_ptr<core::LearnedCostModel> rank;
  std::unique_ptr<core::LearnedCostModel> mse;
};

// Position of each test program in split.test.
std::unordered_map<int, int> TestIndex(const Setup& s) {
  std::unordered_map<int, int> index;
  for (std::size_t i = 0; i < s.split.test.size(); ++i) {
    index[s.split.test[i]] = static_cast<int>(i);
  }
  return index;
}

void EvaluateTile(Run& run, const Setup& s, const core::LearnedCostModel& model,
                  core::PreparedCache& cache) {
  const auto test = TestIndex(s);
  const int programs = static_cast<int>(s.split.test.size());
  // The benchmark's own record of every score the evaluation asked for.
  std::unordered_map<const data::TileKernelData*, std::vector<double>> scores;
  const core::TileScorer learned = core::MakeLearnedTileScorer(model, cache);
  std::vector<core::TileTaskResult> reported;
  {
    ScopedSpan call(run.tracer, "core.evaluate_tile_task");
    reported = core::EvaluateTileTask(
        s.tile, s.split.test, s.corpus,
        [&](const data::TileKernelData& k, int c) {
          const double score = learned(k, c);
          auto& row = scores[&k];
          row.resize(k.configs.size());
          row[static_cast<std::size_t>(c)] = score;
          return score;
        });
  }
  std::vector<ScoredKernel> kernels;
  for (const auto& k : s.tile.kernels) {
    const auto it = test.find(k.record.program_id);
    if (it == test.end() || k.configs.size() < 2) continue;
    const auto found = scores.find(&k);
    if (found == scores.end()) {
      run.Check("tile APE", "a test kernel was never scored");
      return;
    }
    kernels.push_back({it->second, found->second, k.runtimes});
  }
  std::vector<double> reported_ape;
  for (const auto& r : reported) reported_ape.push_back(r.ape);
  run.Check("tile APE",
            CheckSameValues(TileApeByProgram(kernels, programs), reported_ape));

  // Self-test: swap the runtime of the first kernel's chosen config with
  // that of its slowest config, which moves the chosen config's gap.
  ScoredKernel& k = kernels.front();
  const auto chosen = static_cast<std::size_t>(
      std::min_element(k.scores.begin(), k.scores.end()) - k.scores.begin());
  const auto slowest = static_cast<std::size_t>(
      std::max_element(k.runtimes.begin(), k.runtimes.end()) -
      k.runtimes.begin());
  std::swap(k.runtimes[chosen], k.runtimes[slowest]);
  run.MustReject("tile APE", CheckSameValues(TileApeByProgram(kernels, programs),
                                             reported_ape));
  run.E2E("tile_ape_pct", core::AggregateApe(reported).mean, "%");
}

void EvaluateFusion(Run& run, const Setup& s,
                    const core::LearnedCostModel& model,
                    core::PreparedCache& cache) {
  const auto test = TestIndex(s);
  const int programs = static_cast<int>(s.split.test.size());
  analytical::AnalyticalModel analytical(s.sim.target());
  {
    // Paper §5.2: the analytical model is calibrated on the test programs'
    // default-config kernels.
    std::vector<analytical::AnalyticalModel::CalibrationSample> calibration;
    for (const auto& sample : s.fusion.samples) {
      if (test.contains(sample.record.program_id) &&
          sample.from_default_config) {
        calibration.push_back(
            {&sample.record.kernel.graph, sample.tile, sample.runtime});
      }
    }
    analytical.CalibrateFusionCoefficients(calibration);
  }
  std::unordered_map<const data::FusionSample*, double> learned_pred,
      analytical_pred;
  const auto recording = [](core::FusionEstimator inner,
                            std::unordered_map<const data::FusionSample*,
                                               double>& out) {
    return [inner = std::move(inner), &out](const data::FusionSample& sample) {
      const auto estimate = inner(sample);
      if (estimate.has_value()) out[&sample] = *estimate;
      return estimate;
    };
  };
  std::vector<core::FusionTaskResult> learned, analytic;
  {
    ScopedSpan call(run.tracer, "core.evaluate_fusion_task");
    learned = core::EvaluateFusionTask(
        s.fusion, s.split.test, s.corpus,
        recording(core::MakeLearnedFusionEstimator(model, cache),
                  learned_pred));
    analytic = core::EvaluateFusionTask(
        s.fusion, s.split.test, s.corpus,
        recording(core::MakeAnalyticalFusionEstimator(analytical),
                  analytical_pred));
  }

  // Recompute both MAPEs over the kernels >= 5 us each model scored, and
  // the comparison over the kernels both scored.
  std::vector<PredictedSample> own_learned, own_analytic, both_learned,
      both_analytic;
  for (const auto& sample : s.fusion.samples) {
    const auto it = test.find(sample.record.program_id);
    if (it == test.end() || sample.runtime < 5e-6) continue;
    const auto l = learned_pred.find(&sample);
    const auto a = analytical_pred.find(&sample);
    if (l != learned_pred.end()) {
      own_learned.push_back({it->second, l->second, sample.runtime});
    }
    if (a != analytical_pred.end()) {
      own_analytic.push_back({it->second, a->second, sample.runtime});
    }
    if (l != learned_pred.end() && a != analytical_pred.end()) {
      both_learned.push_back({it->second, l->second, sample.runtime});
      both_analytic.push_back({it->second, a->second, sample.runtime});
    }
  }
  std::vector<double> reported_learned, reported_analytic;
  for (const auto& r : learned) reported_learned.push_back(r.mape);
  for (const auto& r : analytic) reported_analytic.push_back(r.mape);
  run.Check("fusion MAPE", CheckSameValues(MapeByProgram(own_learned, programs),
                                           reported_learned));
  run.Check("analytical MAPE",
            CheckSameValues(MapeByProgram(own_analytic, programs),
                            reported_analytic));
  const auto mean = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(std::max<std::size_t>(1, v.size()));
  };
  const double learned_same = mean(MapeByProgram(both_learned, programs));
  const double analytic_same = mean(MapeByProgram(both_analytic, programs));
  // The paper's claim needs the full schedule; shorter models only report.
  if (run.plan.mse_steps >= kFullTrainSteps) {
    run.Check("learned beats analytical",
              CheckBelow(learned_same, analytic_same,
                         "learned fusion MAPE vs analytical"));
  }
  std::printf("fusion MAPE on the same %zu kernels: learned %.2f%%, "
              "analytical %.2f%%\n",
              both_learned.size(), learned_same, analytic_same);

  // Self-test: swap the runtimes of the slowest and fastest learned sample.
  if (own_learned.size() >= 2) {
    auto lo = std::min_element(own_learned.begin(), own_learned.end(),
                               [](const auto& x, const auto& y) {
                                 return x.runtime < y.runtime;
                               });
    auto hi = std::max_element(own_learned.begin(), own_learned.end(),
                               [](const auto& x, const auto& y) {
                                 return x.runtime < y.runtime;
                               });
    std::swap(lo->runtime, hi->runtime);
    run.MustReject("fusion MAPE",
                   CheckSameValues(MapeByProgram(own_learned, programs),
                                   reported_learned));
  }
  run.E2E("fusion_mape_pct", core::AggregateMape(learned).mean, "%");
}

Trained RunTrain(Run& run, const Setup& s) {
  ScopedSpan span(run.tracer, "bench.train");
  core::ThreadPool::SetNumThreads(kTrainWidth);
  Trained out;
  const long featurized_before = feat::FeaturizeKernelInvocations();

  // With `train_repeats` > 1 each model trains that many times from scratch,
  // rank and log-MSE in turn, and each reports its fastest training, as the
  // other timings report their best pass. Training is deterministic, so every
  // repeat must end with the same losses, bit for bit; the last one is kept.
  core::ModelConfig rank_config = core::ModelConfig::TileTaskDefault();
  rank_config.train_steps = run.plan.rank_steps;
  core::ModelConfig mse_config = core::ModelConfig::FusionTaskDefault();
  mse_config.train_steps = run.plan.mse_steps;
  std::unique_ptr<core::PreparedCache> rank_cache, mse_cache;
  core::TrainStats rank_stats, mse_stats;
  double rank_s = std::numeric_limits<double>::infinity();
  double mse_s = rank_s;
  std::vector<double> losses, first_losses;
  for (int rep = 0; rep < run.plan.train_repeats; ++rep) {
    rank_cache.reset();
    out.rank = std::make_unique<core::LearnedCostModel>(rank_config);
    rank_cache = std::make_unique<core::PreparedCache>(*out.rank);
    auto t = Clock::now();
    {
      ScopedSpan call(run.tracer, "core.train_tile_task");
      rank_stats = core::TrainTileTask(*out.rank, s.tile, s.split.train,
                                       *rank_cache);
    }
    rank_s = std::min(rank_s, SecondsSince(t));

    mse_cache.reset();
    out.mse = std::make_unique<core::LearnedCostModel>(mse_config);
    mse_cache = std::make_unique<core::PreparedCache>(*out.mse);
    t = Clock::now();
    {
      ScopedSpan call(run.tracer, "core.train_fusion_task");
      mse_stats = core::TrainFusionTask(*out.mse, s.fusion, s.split.train,
                                        *mse_cache);
    }
    mse_s = std::min(mse_s, SecondsSince(t));
    const std::vector<double> these = {rank_stats.first_loss,
                                       rank_stats.final_loss,
                                       mse_stats.first_loss,
                                       mse_stats.final_loss};
    if (rep == 0) first_losses = these;
    losses.insert(losses.end(), these.begin(), these.end());
  }
  {
    std::vector<double> want;
    for (int rep = 0; rep < run.plan.train_repeats; ++rep) {
      want.insert(want.end(), first_losses.begin(), first_losses.end());
    }
    run.Check("repeated training", CheckBitIdentical(losses, want));
  }
  const long featurized = feat::FeaturizeKernelInvocations() - featurized_before;

  run.attempted +=
      run.plan.train_repeats * (run.plan.rank_steps + run.plan.mse_steps);
  run.E2E("train_rank_steps_per_s", run.plan.rank_steps / rank_s, "steps/s");
  run.E2E("train_mse_steps_per_s", run.plan.mse_steps / mse_s, "steps/s");
  run.Layer("features.featurize_calls.train", static_cast<double>(featurized),
            "count");
  run.Check("training from the warm store",
            featurized == 0 ? ""
                            : "featurized " + std::to_string(featurized) +
                                  " kernels");
  run.Check("rank loss", CheckBelow(rank_stats.final_loss,
                                    rank_stats.first_loss,
                                    "final rank loss vs first"));
  run.Check("mse loss", CheckBelow(mse_stats.final_loss, mse_stats.first_loss,
                                   "final log-MSE loss vs first"));
  std::printf("train: best of %d, rank %d steps in %.2fs (loss %.3f -> %.3f), "
              "mse %d steps in %.2fs (loss %.3f -> %.3f)\n",
              run.plan.train_repeats, run.plan.rank_steps, rank_s, rank_stats.first_loss,
              rank_stats.final_loss, run.plan.mse_steps, mse_s,
              mse_stats.first_loss, mse_stats.final_loss);

  EvaluateTile(run, s, *out.rank, *rank_cache);
  EvaluateFusion(run, s, *out.mse, *mse_cache);
  return out;
}

// ---- Serve: direct calls, open-loop Poisson, whole mix at once ------------------

struct Pair {
  const data::TileKernelData* kernel = nullptr;
  int config = 0;
  std::size_t rank = 0;  // position in dataset order, before the shuffle
  const ir::Graph& graph() const { return kernel->record.kernel.graph; }
  const ir::TileConfig& tile() const {
    return kernel->configs[static_cast<std::size_t>(config)];
  }
};

// Every (test kernel, measured tile) pair, in an order drawn from the seed.
std::vector<Pair> RequestMix(const Setup& s, std::uint64_t seed) {
  const auto test = TestIndex(s);
  std::vector<Pair> mix;
  for (const auto& k : s.tile.kernels) {
    if (!test.contains(k.record.program_id)) continue;
    for (std::size_t c = 0; c < k.configs.size(); ++c) {
      mix.push_back({&k, static_cast<int>(c), mix.size()});
    }
  }
  std::mt19937_64 rng(MixSeed(seed, 3));
  std::shuffle(mix.begin(), mix.end(), rng);
  return mix;
}

struct Offered {
  std::vector<double> latency_us;  // from due time to answer
  std::vector<double> late_us;     // how late the generator sent
  std::vector<double> enqueue_us;  // PredictAsync call duration
  double seconds = 0;              // first send to last answer
  serve::ServiceStats stats;
  ServeCounts counts;
};

// Offers requests to a fresh service: request i is mix[i % size], due at
// due[i] after the start (empty `due`: all due at once, sent back to back).
// The calling thread generates; one collector thread waits on the answers
// in order and compares each with the direct score.
Offered Offer(Run& run, const core::LearnedCostModel& model,
              const serve::ServiceConfig& config, const std::vector<Pair>& mix,
              const std::vector<double>& direct, std::size_t count,
              const std::vector<double>& due_s) {
  struct Pending {
    std::size_t index = 0;
    Clock::time_point due{};
    std::future<serve::PredictResult> answer;
  };
  serve::PredictionService service(CopyModel(model), config);
  Offered out;
  out.latency_us.reserve(count);
  std::vector<double> served(count, 0.0), expected(count, 0.0);
  std::mutex mu;
  std::condition_variable ready;
  std::deque<Pending> queue;  // guarded by mu
  bool done = false;          // guarded by mu
  Clock::time_point last_answer;
  std::uint64_t answered = 0;

  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock lock(mu);
        ready.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      try {
        const serve::PredictResult result = p.answer.get();
        const auto now = Clock::now();
        served[p.index] = result.value;
        out.latency_us.push_back(Micros(now - p.due));
        run.tracer.RecordAsync("serve.request", p.due, now,
                               static_cast<std::int64_t>(p.index));
        last_answer = now;
        ++answered;
      } catch (const std::exception&) {
        // Counted: an unanswered request fails the accounting check.
      }
    }
  });

  // Ends and joins the collector on every way out of this function.
  struct JoinCollector {
    std::thread& thread;
    std::mutex& mu;
    bool& done;
    std::condition_variable& ready;
    void Finish() {
      {
        std::scoped_lock lock(mu);
        done = true;
      }
      ready.notify_one();
      if (thread.joinable()) thread.join();
    }
    ~JoinCollector() { Finish(); }
  } join{collector, mu, done, ready};

  const auto start = Clock::now() + std::chrono::milliseconds(1);
  Clock::time_point first_send;
  for (std::size_t i = 0; i < count; ++i) {
    const Pair& pair = mix[i % mix.size()];
    expected[i] = direct[i % mix.size()];
    Clock::time_point due = Clock::now();
    if (!due_s.empty()) {
      due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due_s[i]));
      // Sleep while the gap is long, then spin: a wake-up from sleep lands
      // ~90 us late on the reference host, which would count as latency.
      const auto wake = due - std::chrono::microseconds(300);
      if (Clock::now() < wake) std::this_thread::sleep_until(wake);
      while (Clock::now() < due) {
      }
    }
    const auto send = Clock::now();
    if (i == 0) first_send = send;
    std::future<serve::PredictResult> answer;
    try {
      ScopedSpan call(run.tracer, "serve.predict_async",
                      static_cast<std::int64_t>(i));
      answer = service.PredictAsync(pair.graph(), &pair.tile());
    } catch (const std::exception&) {
      ++out.counts.issued;
      continue;  // never accepted: shows as issued != requests
    }
    const auto after = Clock::now();
    ++out.counts.issued;
    out.late_us.push_back(Micros(send - due));
    out.enqueue_us.push_back(Micros(after - send));
    {
      std::scoped_lock lock(mu);
      queue.push_back({i, due, std::move(answer)});
    }
    ready.notify_one();
  }
  join.Finish();
  {
    ScopedSpan call(run.tracer, "serve.shutdown");
    service.Shutdown();
  }
  out.seconds = std::chrono::duration<double>(last_answer - first_send).count();
  out.stats = service.stats();
  out.counts.requests = out.stats.requests;
  out.counts.completed = out.stats.completed;
  out.counts.failed = out.stats.failed;
  out.counts.shed = out.stats.shed;
  out.counts.expired = out.stats.expired;
  out.counts.answered = answered;
  run.attempted += static_cast<long>(count);
  run.failed += static_cast<long>(count - answered);
  run.Check("served scores", CheckBitIdentical(served, expected));
  run.Check("service accounting", CheckServeCounts(out.counts));
  return out;
}

// ---- The timed section: serve and autotune, interleaved --------------------------
//
// After open-loop Poisson arrivals, the section runs four activities in small
// units, each turn going to the one furthest behind its share of the time:
// a round of direct calls (one PredictScore pass, one batch-32 pass and one
// closed-loop pass over fixed pairs), the whole mix offered to the service at
// once, one tile-size tuning call and one fusion annealing call. The reference
// host changes speed over seconds; interleaving spreads every timing over the
// whole section, so each meets the same slow and quiet spells.

struct Serve {
  Serve(Run& r, const Setup& s, const core::LearnedCostModel& m)
      : run(r), model(m), mix(RequestMix(s, r.opt.seed)), cache(m) {}

  Run& run;
  const core::LearnedCostModel& model;
  const std::vector<Pair> mix;
  core::PreparedCache cache;
  std::vector<const core::PreparedKernel*> prepared;
  std::vector<double> direct;  // PredictScore of each pair: the reference
  std::vector<std::size_t> closed_set;
  std::size_t batches_per_pass = 0;
  serve::ServiceConfig config;
  // The closed-loop client's service, alive for the whole section.
  std::unique_ptr<serve::PredictionService> service;
  std::vector<double> single_us, batch_us, roundtrip_us;
  std::vector<double> got, want, served, expected;
  std::vector<double> round_qps;
  long featurized = 0;
};

void PrepareServe(Serve& sv) {
  ScopedSpan span(sv.run.tracer, "bench.serve");
  const long featurized_before = feat::FeaturizeKernelInvocations();
  const auto& mix = sv.mix;
  sv.prepared.resize(mix.size());
  sv.direct.resize(mix.size());
  for (std::size_t i = 0; i < mix.size(); ++i) {
    sv.prepared[i] =
        &sv.cache.Get(mix[i].graph(), mix[i].kernel->record.fingerprint);
    sv.direct[i] = sv.model.PredictScore(*sv.prepared[i], &mix[i].tile());
  }
  std::unordered_map<const data::TileKernelData*, double> nodes;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    nodes[mix[i].kernel] = sv.prepared[i]->num_nodes;
  }
  std::vector<double> counts;
  for (const auto& [kernel, n] : nodes) counts.push_back(n);
  std::printf("serve mix: %zu test kernels, %zu (kernel, tile) pairs, nodes "
              "per kernel median %.0f p90 %.0f max %.0f\n",
              counts.size(), mix.size(), Quantile(counts, 0.5),
              Quantile(counts, 0.9), Quantile(counts, 1.0));

  sv.config.num_threads = kServeServiceThreads;
  sv.batches_per_pass = mix.size() / kBatch;  // the rest sit out
  // The closed-loop client sends every eighth pair of the dataset order, so
  // every seed times the same pairs.
  for (std::size_t k = 0; k < mix.size(); ++k) {
    if (mix[k].rank % 8 == 0) sv.closed_set.push_back(k);
  }
  sv.service = std::make_unique<serve::PredictionService>(CopyModel(sv.model),
                                                          sv.config);
  sv.featurized += feat::FeaturizeKernelInvocations() - featurized_before;
}

// One round of direct calls: a PredictScore pass over the mix, a batch-32
// PrepareBatch + PredictBatch pass over it, and a closed-loop pass of the
// service. Every pass of a kind holds the same pairs.
void DirectRound(Serve& sv) {
  ScopedSpan span(sv.run.tracer, "bench.serve");
  Run& run = sv.run;
  const long featurized_before = feat::FeaturizeKernelInvocations();
  const auto& mix = sv.mix;
  for (std::size_t k = 0; k < mix.size(); ++k) {
    const auto t = Clock::now();
    double score = 0;
    {
      ScopedSpan call(run.tracer, "core.predict_score");
      score = sv.model.PredictScore(*sv.prepared[k], &mix[k].tile());
    }
    sv.single_us.push_back(Micros(Clock::now() - t));
    sv.got.push_back(score);
    sv.want.push_back(sv.direct[k]);
  }
  for (std::size_t b = 0; b < sv.batches_per_pass; ++b) {
    std::vector<core::BatchItem> items;
    for (std::size_t k = b * kBatch; k < (b + 1) * kBatch; ++k) {
      items.push_back({sv.prepared[k], &mix[k].tile()});
    }
    const auto t = Clock::now();
    std::vector<double> scores;
    {
      ScopedSpan call(run.tracer, "core.prepare_batch");
      const core::PreparedBatch batch = sv.model.PrepareBatch(items);
      ScopedSpan predict(run.tracer, "core.predict_batch");
      scores = sv.model.PredictBatch(batch);
    }
    sv.batch_us.push_back(Micros(Clock::now() - t));
    sv.got.insert(sv.got.end(), scores.begin(), scores.end());
    sv.want.insert(sv.want.end(), sv.direct.begin() + b * kBatch,
                   sv.direct.begin() + (b + 1) * kBatch);
  }
  for (const std::size_t k : sv.closed_set) {
    const auto t = Clock::now();
    try {
      ScopedSpan call(run.tracer, "serve.predict",
                      static_cast<std::int64_t>(sv.served.size()));
      sv.served.push_back(
          sv.service->PredictAsync(mix[k].graph(), &mix[k].tile()).get().value);
      sv.roundtrip_us.push_back(Micros(Clock::now() - t));
      sv.expected.push_back(sv.direct[k]);
    } catch (const std::exception&) {
      ++run.failed;
    }
  }
  run.attempted += static_cast<long>(mix.size() + sv.batches_per_pass +
                                     sv.closed_set.size());
  sv.featurized += feat::FeaturizeKernelInvocations() - featurized_before;
}

// Open-loop Poisson arrivals at one fixed rate for `seconds`.
void PoissonPhase(Serve& sv, double seconds) {
  ScopedSpan span(sv.run.tracer, "bench.serve");
  Run& run = sv.run;
  const long featurized_before = feat::FeaturizeKernelInvocations();
  std::vector<double> due_s;
  {
    std::mt19937_64 rng(MixSeed(run.opt.seed, 4));
    std::exponential_distribution<double> gap(kPoissonRate);
    for (double t = gap(rng); t < seconds; t += gap(rng)) due_s.push_back(t);
  }
  const Offered poisson =
      Offer(run, sv.model, sv.config, sv.mix, sv.direct, due_s.size(), due_s);
  sv.featurized += feat::FeaturizeKernelInvocations() - featurized_before;
  // Latency from the due time. Reported without a bound: on the reference
  // host it follows the host's stalls more than the code (README.md).
  run.Layer("serve.p50_us", Quantile(poisson.latency_us, 0.5), "us");
  run.Layer("serve.p99_us", Quantile(poisson.latency_us, 0.99), "us");
  const auto& st = poisson.stats;
  run.Layer("serve.batches", static_cast<double>(st.batches), "count");
  run.Layer("serve.mean_batch_size", st.mean_batch_size(), "requests");
  run.Layer("serve.deadline_flushes", static_cast<double>(st.deadline_flushes),
            "count");
  run.Layer("serve.size_flushes", static_cast<double>(st.size_flushes), "count");
  run.Layer("serve.enqueue_us", Median(poisson.enqueue_us), "us");
  run.Layer("serve.generator_late_p50_us", Quantile(poisson.late_us, 0.5), "us");
  run.Layer("serve.generator_late_p99_us", Quantile(poisson.late_us, 0.99),
            "us");
  run.Layer("serve.generator_late_max_us", Quantile(poisson.late_us, 1.0), "us");
  run.Layer("plan.compiles", static_cast<double>(st.plan_compiles), "count");
  run.Layer("plan.hits", static_cast<double>(st.plan_hits), "count");
  run.Layer("plan.hit_ratio",
            st.batches == 0 ? 0
                            : static_cast<double>(st.plan_hits) /
                                  static_cast<double>(st.batches),
            "ratio");
  std::printf("serve: Poisson latency from the due time p50 %.1f us, p99 "
              "%.1f us\n",
              Quantile(poisson.latency_us, 0.5),
              Quantile(poisson.latency_us, 0.99));
  std::printf("serve: %zu Poisson requests at %.0f/s, %llu batches (mean %.2f), "
              "%llu plan compiles, generator late p50 %.1f us p99 %.1f us "
              "max %.1f us\n",
              due_s.size(), kPoissonRate,
              static_cast<unsigned long long>(st.batches), st.mean_batch_size(),
              static_cast<unsigned long long>(st.plan_compiles),
              Quantile(poisson.late_us, 0.5), Quantile(poisson.late_us, 0.99),
              Quantile(poisson.late_us, 1.0));
}

// The whole mix offered at once to a fresh service, blocking when its queue
// is full.
void SaturatedRound(Serve& sv) {
  ScopedSpan span(sv.run.tracer, "bench.serve");
  const long featurized_before = feat::FeaturizeKernelInvocations();
  serve::ServiceConfig config = sv.config;
  config.overload_policy = serve::OverloadPolicy::kBlock;
  const Offered round =
      Offer(sv.run, sv.model, config, sv.mix, sv.direct, sv.mix.size(), {});
  sv.round_qps.push_back(static_cast<double>(round.counts.answered) /
                         round.seconds);
  sv.featurized += feat::FeaturizeKernelInvocations() - featurized_before;
}

void FinishServe(Serve& sv) {
  Run& run = sv.run;
  sv.service->Shutdown();
  const auto st = sv.service->stats();
  run.Check("closed-loop served scores",
            CheckBitIdentical(sv.served, sv.expected));
  run.Check("closed-loop service accounting",
            CheckServeCounts({sv.served.size(), st.requests, st.completed,
                              st.failed, st.shed, st.expired,
                              sv.served.size()}));
  run.Check("direct PredictScore/PredictBatch",
            CheckBitIdentical(sv.got, sv.want));
  // Self-test: one served score one ulp off.
  {
    std::vector<double> off = sv.got;
    off[off.size() / 2] = OneUlpUp(off[off.size() / 2]);
    run.MustReject("served scores", CheckBitIdentical(off, sv.want));
  }
  // Each timing reports its best pass or round (BestBlock).
  run.E2E("predict_single_us", BestBlock(sv.single_us, sv.mix.size(), 0.5),
          "us");
  run.E2E("predict_batch32_per_s",
          kBatch * 1e6 / BestBlock(sv.batch_us, sv.batches_per_pass, 0.5),
          "preds/s");
  run.E2E("serve_closed_loop_us",
          BestBlock(sv.roundtrip_us, sv.closed_set.size(), 0.5), "us");
  run.E2E("serve_saturated_qps",
          *std::max_element(sv.round_qps.begin(), sv.round_qps.end()), "req/s");
  run.Layer("features.featurize_calls.serve", static_cast<double>(sv.featurized),
            "count");
  std::printf("serve: %zu direct rounds, %zu saturated rounds\n",
              sv.single_us.size() / sv.mix.size(), sv.round_qps.size());
}

struct TuneCounts {
  long calls = 0;
  long items = 0;
  double seconds = 0;
};

// Forwards every estimate to the learned evaluator and counts what the
// tuner asked of it.
class CountingEvaluator final : public tune::CostEvaluator {
 public:
  CountingEvaluator(tune::CostEvaluator& inner, Tracer& tracer,
                    TuneCounts& counts)
      : inner_(inner), tracer_(tracer), counts_(counts) {}

  std::optional<double> EstimateKernel(const ir::Graph& kernel,
                                       const ir::TileConfig& tile) override {
    const tune::KernelTileRef ref{&kernel, &tile};
    return EstimateBatch(std::span<const tune::KernelTileRef>(&ref, 1))
        .front();
  }
  std::vector<std::optional<double>> EstimateBatch(
      std::span<const tune::KernelTileRef> items) override {
    ScopedSpan span(tracer_, "autotuner.estimate_batch");
    const auto t = Clock::now();
    auto out = inner_.EstimateBatch(items);
    counts_.seconds += SecondsSince(t);
    ++counts_.calls;
    counts_.items += static_cast<long>(items.size());
    return out;
  }
  double SpentSeconds() const override { return inner_.SpentSeconds(); }
  std::string_view name() const override { return inner_.name(); }

 private:
  tune::CostEvaluator& inner_;
  Tracer& tracer_;
  TuneCounts& counts_;
};

// One round of tile-size tuning: top-10 and model-only over every test
// program, in the same order every round.
struct TileRound {
  std::vector<double> seconds;   // wall time per call
  std::vector<long> candidates;  // (kernel, tile) pairs ranked per call
  double hw_seconds = 0;
  std::vector<tune::TileTuneResult> top10, model_only;  // per test program
};

// One round of fusion annealing over the six Fig 5 programs.
struct FusionRound {
  std::vector<double> seconds;  // wall time per call
  std::vector<long> configs;    // configs scored per call
  double hw_seconds = 0;
  std::vector<double> speedups;
};

struct Autotune {
  Autotune(Run& r, const Setup& setup, const Trained& m)
      : run(r), s(setup), models(m), analytical(setup.sim.target()),
        tile_tuner(setup.sim, analytical), fusion_tuner(setup.sim, analytical) {}

  std::size_t tile_calls() const { return 2 * s.split.test.size(); }
  std::size_t fusion_calls() const { return std::size(kFusionPrograms); }

  Run& run;
  const Setup& s;
  const Trained& models;
  const analytical::AnalyticalModel analytical;
  const tune::TileSizeAutotuner tile_tuner;
  const tune::FusionAutotuner fusion_tuner;
  TuneCounts tile_counts, fusion_counts;
  std::vector<TileRound> tile;
  std::vector<FusionRound> fusion;
  long featurized = 0;
};

void TileCall(Autotune& at) {
  ScopedSpan span(at.run.tracer, "bench.autotune");
  if (at.tile.empty() || at.tile.back().seconds.size() == at.tile_calls()) {
    at.tile.emplace_back();
  }
  TileRound& round = at.tile.back();
  const std::size_t i = round.seconds.size();
  const ir::Program& program =
      at.s.corpus[static_cast<std::size_t>(at.s.split.test[i / 2])];
  const auto mode =
      i % 2 == 0 ? tune::TileTuneMode::kTopK : tune::TileTuneMode::kModelOnly;
  const long featurized_before = feat::FeaturizeKernelInvocations();
  // A fresh evaluator per call, so each call ranks all its candidates.
  core::PreparedCache cache(*at.models.rank);
  tune::LearnedEvaluator learned(*at.models.rank, cache);
  CountingEvaluator ranker(learned, at.run.tracer, at.tile_counts);
  const long items_before = at.tile_counts.items;
  const auto t = Clock::now();
  tune::TileTuneResult result;
  {
    ScopedSpan call(at.run.tracer, "autotuner.tile_tune");
    result = at.tile_tuner.Tune(program, mode, &ranker, kTopK);
  }
  round.seconds.push_back(SecondsSince(t));
  round.candidates.push_back(at.tile_counts.items - items_before);
  if (mode == tune::TileTuneMode::kTopK) {
    round.hw_seconds += result.hardware_seconds;
    round.top10.push_back(std::move(result));
  } else {
    round.model_only.push_back(std::move(result));
  }
  at.featurized += feat::FeaturizeKernelInvocations() - featurized_before;
  ++at.run.attempted;
}

void FusionCall(Autotune& at) {
  ScopedSpan span(at.run.tracer, "bench.autotune");
  if (at.fusion.empty() ||
      at.fusion.back().seconds.size() == at.fusion_calls()) {
    at.fusion.emplace_back();
  }
  FusionRound& round = at.fusion.back();
  const char* name = kFusionPrograms[round.seconds.size()];
  const auto program =
      std::find_if(at.s.corpus.begin(), at.s.corpus.end(),
                   [&](const ir::Program& p) { return p.name == name; });
  if (program == at.s.corpus.end()) {
    throw std::runtime_error(std::string("fusion program missing: ") + name);
  }
  const long featurized_before = feat::FeaturizeKernelInvocations();
  core::PreparedCache cache(*at.models.mse);
  tune::LearnedEvaluator learned(*at.models.mse, cache);
  CountingEvaluator model(learned, at.run.tracer, at.fusion_counts);
  tune::FusionTuneOptions options;
  options.max_steps = kAnnealSteps;
  options.seed = kAnnealSeed;
  options.hardware_budget_sec = kAnnealHardwareBudget;
  const auto t = Clock::now();
  tune::FusionTuneResult result;
  {
    ScopedSpan call(at.run.tracer, "autotuner.fusion_tune");
    result = at.fusion_tuner.TuneWithModel(*program, model, options);
  }
  round.seconds.push_back(SecondsSince(t));
  round.configs.push_back(result.configs_explored);
  round.hw_seconds += result.hardware_seconds;
  round.speedups.push_back(result.Speedup());
  at.featurized += feat::FeaturizeKernelInvocations() - featurized_before;
  ++at.run.attempted;
}

// Work per second over the rounds: each call counts with its best time over
// the rounds, as for the serve timings (BestBlock); every round repeats the
// same calls with the same work.
template <typename Round, typename Work>
double BestRate(const std::vector<Round>& rounds, Work Round::*work) {
  const Round& first = rounds.front();
  double best_total = 0;
  for (std::size_t i = 0; i < first.seconds.size(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& r : rounds) best = std::min(best, r.seconds[i]);
    best_total += best;
  }
  const auto& w = first.*work;
  return std::accumulate(w.begin(), w.end(), 0.0) / best_total;
}

void FinishAutotune(Autotune& at) {
  Run& run = at.run;
  const double tile_rounds = static_cast<double>(at.tile.size());
  const double fusion_rounds = static_cast<double>(at.fusion.size());
  run.E2E("tune_tile_candidates_per_s", BestRate(at.tile, &TileRound::candidates),
          "candidates/s");
  run.E2E("tune_fusion_configs_per_s", BestRate(at.fusion, &FusionRound::configs),
          "configs/s");
  run.E2E("tune_fusion_speedup", GeoMean(at.fusion.front().speedups), "x");
  // Per round: one tile round and one fusion round.
  run.Layer("autotuner.estimate_batch_calls",
            at.tile_counts.calls / tile_rounds +
                at.fusion_counts.calls / fusion_rounds,
            "count");
  run.Layer("autotuner.estimate_batch_items",
            at.tile_counts.items / tile_rounds +
                at.fusion_counts.items / fusion_rounds,
            "count");
  run.Layer("autotuner.estimate_batch_us",
            (at.tile_counts.seconds + at.fusion_counts.seconds) * 1e6 /
                static_cast<double>(at.tile_counts.calls +
                                    at.fusion_counts.calls),
            "us");
  run.Layer("autotuner.hw_seconds",
            at.tile.front().hw_seconds + at.fusion.front().hw_seconds, "s");
  // Featurizer calls come from annealing (new kernels); count them per round.
  const double featurized_per_round =
      static_cast<double>(at.featurized) / fusion_rounds;
  run.Layer("features.featurize_calls.autotune", featurized_per_round, "count");

  // Checks, outside the timed section.
  const TileRound& first = at.tile.front();
  for (std::size_t i = 0; i < at.s.split.test.size(); ++i) {
    const auto& top10 = first.top10[i];
    run.Check("top-10 never slower than the default " + top10.program,
              CheckNotSlower(top10.tuned_runtime_sec, top10.default_runtime_sec));
    const auto exhaustive = at.tile_tuner.Tune(
        at.s.corpus[static_cast<std::size_t>(at.s.split.test[i])],
        tune::TileTuneMode::kExhaustive, nullptr);
    run.Check("exhaustive vs top-10 " + top10.program,
              CheckAtLeast(exhaustive.Speedup(), top10.Speedup()));
    run.Check("exhaustive vs model-only " + top10.program,
              CheckAtLeast(exhaustive.Speedup(), first.model_only[i].Speedup()));
  }
  // Self-test: a tuned runtime above the default.
  run.MustReject("top-10 never slower than the default",
                 CheckNotSlower(OneUlpUp(first.top10[0].default_runtime_sec),
                                first.top10[0].default_runtime_sec));
  std::printf("autotune: %zu rounds of %zu tile-tuning calls, %zu rounds of "
              "%zu annealing calls, %.0f featurizer calls per annealing round\n",
              at.tile.size(), at.tile_calls(), at.fusion.size(),
              at.fusion_calls(), featurized_per_round);
}

// At least `min` rounds of `calls` calls each, the last one whole.
template <typename Round>
bool WholeRounds(const std::vector<Round>& rounds, std::size_t calls,
                 std::size_t min) {
  return rounds.size() >= min && rounds.back().seconds.size() == calls;
}

// One activity of the interleaved section.
struct Activity {
  double share = 0;                // of the section's time
  std::function<void()> unit;      // one unit of work
  std::function<bool()> finished;  // its minimum of whole rounds is done
  double spent = 0;                // seconds so far
};

// Runs the activities until `end`, each turn going to the one furthest
// behind its share; then lets each finish its minimum of whole rounds.
void Interleave(std::vector<Activity>& activities, Clock::time_point end) {
  while (Clock::now() < end) {
    Activity* next = nullptr;
    for (auto& a : activities) {
      if (a.share > 0 &&
          (next == nullptr || a.spent * next->share < next->spent * a.share)) {
        next = &a;
      }
    }
    if (next == nullptr) break;
    const auto t = Clock::now();
    next->unit();
    next->spent += SecondsSince(t);
  }
  for (auto& a : activities) {
    while (!a.finished()) a.unit();
  }
}

void RunTimedSection(Run& run, const Setup& s, const Trained& models) {
  static_assert(kServeGlobalWidth == kTuneWidth,
                "serve and autotune units interleave on one global pool");
  core::ThreadPool::SetNumThreads(kServeGlobalWidth);
  const Plan& plan = run.plan;
  Serve sv(run, s, *models.rank);
  PrepareServe(sv);
  Autotune at(run, s, models);

  const double poisson_s = plan.poisson * run.opt.seconds;
  const auto end = After(run.opt.seconds);
  PoissonPhase(sv, poisson_s);
  std::vector<Activity> activities = {
      {plan.direct, [&] { DirectRound(sv); },
       [&] { return sv.single_us.size() >= kMinRounds * sv.mix.size(); }},
      {plan.saturated, [&] { SaturatedRound(sv); },
       [&] { return sv.round_qps.size() >= kMinRounds; }},
      {plan.tile, [&] { TileCall(at); },
       [&] { return WholeRounds(at.tile, at.tile_calls(), kMinRounds); }},
      {plan.fusion, [&] { FusionCall(at); },
       [&] { return WholeRounds(at.fusion, at.fusion_calls(), kMinRounds); }},
  };
  Interleave(activities, end);
  FinishServe(sv);
  FinishAutotune(at);
}

// ---- Per-layer measurements of the traced run ------------------------------------

nn::AdamConfig AdamFor(const core::ModelConfig& c) {
  nn::AdamConfig a;
  a.learning_rate = c.learning_rate;
  a.lr_decay = c.lr_decay;
  a.clip = c.grad_clip;
  a.clip_norm = c.grad_clip_norm;
  return a;
}

struct StepTimes {
  std::vector<double> prepare_us, forward_us, backward_us, adam_us, total_us;
};

// Training steps built from the public calls a trainer step makes, each
// timed: PrepareBatch, ForwardBatch + loss, Tape::Backward, Adam::Step.
StepTimes TimeTrainSteps(Run& run, const Setup& s,
                         const core::LearnedCostModel& trained, bool rank,
                         int steps) {
  auto model = CopyModel(trained);
  core::PreparedCache cache(*model);
  nn::Adam adam(AdamFor(model->config()));
  auto params = model->params().params();
  nn::TapeArena arena;
  nn::Tape tape(true, &arena);
  std::mt19937_64 rng(MixSeed(run.opt.seed, 5));
  std::unordered_map<int, bool> train;
  for (const int pid : s.split.train) train[pid] = true;
  std::vector<const data::TileKernelData*> kernels;
  for (const auto& k : s.tile.kernels) {
    if (train.contains(k.record.program_id) && k.configs.size() >= 2) {
      kernels.push_back(&k);
    }
  }
  std::vector<const data::FusionSample*> samples;
  for (const auto& f : s.fusion.samples) {
    if (train.contains(f.record.program_id)) samples.push_back(&f);
  }
  const auto& cfg = model->config();
  StepTimes out;
  for (int step = 0; step < steps; ++step) {
    std::vector<core::BatchItem> items;
    std::vector<double> targets;
    if (rank) {
      const auto& k = *kernels[rng() % kernels.size()];
      const auto& pk = cache.Get(k.record.kernel.graph, k.record.fingerprint);
      std::vector<int> order(k.configs.size());
      std::iota(order.begin(), order.end(), 0);
      std::shuffle(order.begin(), order.end(), rng);
      order.resize(std::min<std::size_t>(order.size(),
                                         static_cast<std::size_t>(
                                             cfg.configs_per_batch)));
      for (const int c : order) {
        items.push_back({&pk, &k.configs[static_cast<std::size_t>(c)]});
        targets.push_back(k.runtimes[static_cast<std::size_t>(c)]);
      }
    } else {
      for (int b = 0; b < cfg.kernels_per_batch; ++b) {
        const auto& f = *samples[rng() % samples.size()];
        items.push_back(
            {&cache.Get(f.record.kernel.graph, f.record.fingerprint),
             cfg.use_tile_features ? &f.tile : nullptr});
        targets.push_back(f.runtime);
      }
    }
    const auto t0 = Clock::now();
    core::PreparedBatch batch;
    {
      ScopedSpan call(run.tracer, "core.prepare_batch");
      batch = model->PrepareBatch(items);
    }
    const auto t1 = Clock::now();
    nn::Tensor loss;
    {
      ScopedSpan call(run.tracer, "core.forward_batch");
      tape.Clear();
      nn::Tensor scores = model->ForwardBatch(tape, batch, true);
      loss = rank ? nn::PairwiseRankLoss(tape, scores, targets,
                                         nn::RankSurrogate::kHinge)
                  : nn::MseLogLoss(tape, scores, targets);
    }
    const auto t2 = Clock::now();
    {
      ScopedSpan call(run.tracer, "nn.backward");
      tape.Backward(loss);
    }
    const auto t3 = Clock::now();
    {
      ScopedSpan call(run.tracer, "nn.adam_step");
      adam.Step(params);
    }
    const auto t4 = Clock::now();
    out.prepare_us.push_back(Micros(t1 - t0));
    out.forward_us.push_back(Micros(t2 - t1));
    out.backward_us.push_back(Micros(t3 - t2));
    out.adam_us.push_back(Micros(t4 - t3));
    out.total_us.push_back(Micros(t4 - t0));
  }
  run.attempted += steps;
  return out;
}

void MeasureLayers(Run& run, const Setup& s, const Trained& models) {
  ScopedSpan span(run.tracer, "bench.layers");
  const int kSteps = 60;
  core::ThreadPool::SetNumThreads(1);
  for (const bool rank : {true, false}) {
    const StepTimes t = TimeTrainSteps(run, s, rank ? *models.rank : *models.mse,
                                       rank, kSteps);
    const std::string suffix = rank ? ".rank" : ".mse";
    run.Layer("core.prepare_batch_us" + suffix, Median(t.prepare_us), "us");
    run.Layer("core.forward_us" + suffix, Median(t.forward_us), "us");
    run.Layer("nn.backward_us" + suffix, Median(t.backward_us), "us");
    run.Layer("nn.adam_us" + suffix, Median(t.adam_us), "us");
  }

  const core::LearnedCostModel& model = *models.rank;
  const std::vector<Pair> mix = RequestMix(s, run.opt.seed);
  core::PreparedCache cache(model);
  std::vector<core::BatchItem> all;
  for (const Pair& p : mix) {
    all.push_back({&cache.Get(p.graph(), p.kernel->record.fingerprint),
                   &p.tile()});
  }
  const std::size_t chunks = std::min<std::size_t>(40, all.size() / kBatch);
  std::vector<core::PreparedBatch> batches;
  for (std::size_t b = 0; b < chunks; ++b) {
    batches.push_back(model.PrepareBatch(
        std::span(all).subspan(b * kBatch, kBatch)));
  }
  for (const int width : kWidths) {
    core::ThreadPool::SetNumThreads(width);
    const StepTimes t = TimeTrainSteps(run, s, *models.rank, true, kSteps);
    run.Layer("core.train_step_us.w" + std::to_string(width),
              Median(t.total_us), "us");
    std::vector<double> batch_us;
    for (const auto& batch : batches) {
      const auto t0 = Clock::now();
      {
        ScopedSpan call(run.tracer, "core.predict_batch");
        model.PredictBatch(batch);
      }
      batch_us.push_back(Micros(Clock::now() - t0));
    }
    run.Layer("core.predict_batch32_us.w" + std::to_string(width),
              Median(batch_us), "us");
  }

  // Plans: compile per batch-shape bucket, replay, and the tape beside them.
  core::ThreadPool::SetNumThreads(1);
  std::map<std::pair<int, int>, std::shared_ptr<const plan::CompiledPlan>> plans;
  std::vector<double> compile_us;
  const auto plan_for = [&](int kernels, int nodes) {
    const auto bucket = serve::PlanCache::Bucket(kernels, nodes);
    auto& slot = plans[bucket];
    if (!slot) {
      const auto t0 = Clock::now();
      ScopedSpan call(run.tracer, "plan.compile");
      slot = model.CompilePlan(bucket.first, bucket.second);
      compile_us.push_back(Micros(Clock::now() - t0));
    }
    return slot;
  };
  std::vector<double> replay32_us, replay1_us, tape1_us;
  std::vector<double> planned, taped;
  const plan::CompiledPlan* largest = nullptr;
  for (const auto& batch : batches) {
    const auto p = plan_for(batch.num_kernels(), batch.total_nodes());
    if (largest == nullptr || p->slab_bytes() > largest->slab_bytes()) {
      largest = p.get();
    }
    const auto t0 = Clock::now();
    std::vector<double> scores;
    {
      ScopedSpan call(run.tracer, "plan.replay");
      scores = model.PredictBatchWithPlan(*p, batch);
    }
    replay32_us.push_back(Micros(Clock::now() - t0));
    planned.insert(planned.end(), scores.begin(), scores.end());
    const auto tape_scores = model.PredictBatch(batch);
    taped.insert(taped.end(), tape_scores.begin(), tape_scores.end());
  }
  const std::size_t singles = std::min<std::size_t>(400, all.size());
  for (std::size_t i = 0; i < singles; ++i) {
    const auto& item = all[i];
    const auto p = plan_for(1, item.kernel->num_nodes);
    auto t0 = Clock::now();
    double a = 0, b = 0;
    {
      ScopedSpan call(run.tracer, "plan.replay");
      a = model.PredictWithPlan(*p, *item.kernel, item.tile);
    }
    replay1_us.push_back(Micros(Clock::now() - t0));
    t0 = Clock::now();
    {
      ScopedSpan call(run.tracer, "core.predict_score");
      b = model.PredictScore(*item.kernel, item.tile);
    }
    tape1_us.push_back(Micros(Clock::now() - t0));
    planned.push_back(a);
    taped.push_back(b);
  }
  run.Check("plan replay vs tape", CheckBitIdentical(planned, taped));
  run.attempted += static_cast<long>(batches.size() + singles);
  run.Layer("plan.compile_us", Median(compile_us), "us");
  run.Layer("plan.replay_us.b32", Median(replay32_us), "us");
  run.Layer("plan.replay_us.b1", Median(replay1_us), "us");
  run.Layer("core.predict_us.b1", Median(tape1_us), "us");
  run.Layer("plan.instructions",
            largest ? static_cast<double>(largest->num_instructions()) : 0,
            "count");
  run.Layer("plan.slab_bytes",
            largest ? static_cast<double>(largest->slab_bytes()) : 0, "bytes");

  // A prepare-cache miss: featurize and scale one kernel from its graph.
  std::vector<double> prepare_us;
  std::unordered_map<std::uint64_t, bool> seen;
  for (const Pair& p : mix) {
    if (!seen.emplace(p.kernel->record.fingerprint, true).second) continue;
    const auto t0 = Clock::now();
    {
      ScopedSpan call(run.tracer, "core.prepare");
      model.Prepare(p.graph());
    }
    prepare_us.push_back(Micros(Clock::now() - t0));
  }
  run.Layer("core.prepare_miss_us", Median(prepare_us), "us");
}

// ---- Output ------------------------------------------------------------------

std::string HostStamp(const Options& opt) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "cpus_in_affinity_mask=%d compiler=\"%s\" flags=\"%s\" "
                "git_sha=%s widths=setup:%d,train:%d,serve:%d+service:%d,"
                "tune:%d",
                AffinityCpus(), __VERSION__, PERFBENCH_CXX_FLAGS,
                opt.git_sha.c_str(), kSetupWidth, kTrainWidth,
                kServeGlobalWidth, kServeServiceThreads, kTuneWidth);
  return buf;
}

void PrintResult(const Run& run) {
  const auto& metrics = run.opt.trace ? run.per_layer : run.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              run.problems.empty() ? "true" : "false", run.attempted,
              run.failed);
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int Main(const Options& opt) {
  Run run(opt);
  std::filesystem::create_directories(opt.out_dir);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\nhost: %s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, HostStamp(opt).c_str());
  std::fflush(stdout);

  const auto [steal_before, total_before] = CpuStealAndTotal();
  StoreFeatureSource source;
  const Setup setup = RunSetup(run, source);
  const Trained models = RunTrain(run, setup);
  RunTimedSection(run, setup, models);
  run.E2E("peak_rss_mb", PeakRssMb(), "MB");
  // Share of the host's CPU time the hypervisor gave to other guests while
  // this run went: the noise the timings above carry.
  const auto [steal_after, total_after] = CpuStealAndTotal();
  run.Layer("host.steal_pct",
            total_after > total_before
                ? 100.0 * (steal_after - steal_before) /
                      (total_after - total_before)
                : 0,
            "%");

  if (opt.trace) {
    MeasureLayers(run, setup, models);
    for (const auto& [layer, seconds] : run.tracer.SelfSecondsByLayer()) {
      run.Layer("trace.self_s." + layer, seconds, "s");
    }
    run.Layer("trace.spans", static_cast<double>(run.tracer.size()), "count");
    const std::string path = opt.out_dir + "/trace_" + opt.workload + "_seed" +
                             std::to_string(opt.seed) + ".json";
    const bool written = run.tracer.WriteChromeTrace(
        path, {{"host", HostStamp(opt)},
               {"workload", opt.workload},
               {"seed", std::to_string(opt.seed)}});
    run.Check("trace file", written ? "" : "cannot write " + path);
    std::printf("trace: %zu spans written to %s\n", run.tracer.size(),
                path.c_str());
  }
  feat::SetGlobalKernelFeatureSource(nullptr);

  for (const auto& [name, m] : run.end_to_end) {
    std::printf("e2e %-28s %.10g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [name, m] : run.per_layer) {
    std::printf("layer %-40s %.10g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& problem : run.problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }
  PrintResult(run);
  return run.problems.empty() ? 0 : 1;
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
      if (!(opt.seconds > 0 && opt.seconds <= 600)) {
        throw std::invalid_argument("--seconds must be in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      opt.trace = value == "1";
    } else if (arg == "--out") {
      opt.out_dir = value;
    } else if (arg == "--git-sha") {
      opt.git_sha = value;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  PlanFor(opt);  // validates the workload name
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
