#include "tools/cli.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "src/core/confidence.h"
#include "src/core/sketch_estimators.h"
#include "src/core/sketch_over_sample.h"
#include "src/data/frequency_vector.h"
#include "src/sketch/dyadic.h"
#include "src/sketch/heavy_hitters.h"
#include "src/sketch/kmv.h"
#include "src/data/tpch_lite.h"
#include "src/data/zipf.h"
#include "src/sampling/with_replacement.h"
#include "src/sampling/without_replacement.h"
#include "src/sketch/serialize.h"
#include "src/stream/checkpoint.h"
#include "src/stream/faults.h"
#include "src/stream/shard_engine.h"
#include "src/stream/shed_controller.h"
#include "src/stream/source.h"
#include "src/util/flags.h"
#include "src/util/rng.h"
#include "tools/serve.h"

namespace sketchsample {
namespace cli {

std::vector<uint64_t> ReadValuesFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open dataset file: " + path);
  }
  std::vector<uint64_t> values;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    try {
      size_t consumed = 0;
      const unsigned long long v = std::stoull(line, &consumed);
      while (consumed < line.size() &&
             (line[consumed] == ' ' || line[consumed] == '\r' ||
              line[consumed] == '\t')) {
        ++consumed;
      }
      if (consumed != line.size()) throw std::invalid_argument(line);
      values.push_back(v);
    } catch (const std::exception&) {
      throw std::runtime_error(path + ":" + std::to_string(line_number) +
                               ": malformed value '" + line + "'");
    }
  }
  return values;
}

void WriteValuesFile(const std::string& path,
                     const std::vector<uint64_t>& values) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write dataset file: " + path);
  }
  for (uint64_t v : values) out << v << '\n';
  if (!out) {
    throw std::runtime_error("short write to dataset file: " + path);
  }
}

std::vector<uint8_t> ReadBinaryFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open sketch file: " + path);
  }
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  return bytes;
}

void WriteBinaryFile(const std::string& path,
                     const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("cannot write sketch file: " + path);
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    throw std::runtime_error("short write to sketch file: " + path);
  }
}

namespace {

void PrintTopUsage() {
  std::fprintf(stderr,
               "usage: sketchsample "
               "<generate|exact|estimate|sketch|combine|stats|topk|range|"
               "stream|serve|offline> [flags]\n"
               "run a subcommand with --help for its flags\n");
}

SketchParams SketchParamsFromFlags(const Flags& flags) {
  SketchParams params;
  params.rows = static_cast<size_t>(flags.GetInt("rows"));
  params.buckets = static_cast<size_t>(flags.GetInt("buckets"));
  params.scheme = XiSchemeFromName(flags.GetString("scheme"));
  params.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  return params;
}

void DefineSketchFlags(Flags& flags) {
  flags.Define("buckets", "5000", "F-AGMS buckets per row");
  flags.Define("rows", "1", "F-AGMS rows");
  flags.Define("scheme", "eh3", "xi scheme");
  flags.Define("seed", "1", "sketch seed");
}

int CmdGenerate(int argc, char** argv) {
  Flags flags;
  flags.Define("kind", "zipf", "zipf | tpch-orders | tpch-lineitem");
  flags.Define("out", "", "output dataset file (required)");
  flags.Define("domain", "100000", "zipf: domain size");
  flags.Define("tuples", "1000000", "zipf: number of tuples");
  flags.Define("skew", "1.0", "zipf: coefficient");
  flags.Define("scale", "0.01", "tpch: scale factor");
  flags.Define("seed", "1", "generator seed");
  flags.Define("shuffle", "true", "emit tuples in random order");
  if (!flags.Parse(argc, argv)) return 1;
  const std::string out = flags.GetString("out");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 1;
  }
  const uint64_t seed = flags.GetInt("seed");
  const std::string kind = flags.GetString("kind");

  std::vector<uint64_t> values;
  if (kind == "zipf") {
    ZipfSampler sampler(static_cast<size_t>(flags.GetInt("domain")),
                        flags.GetDouble("skew"));
    Xoshiro256 rng(seed);
    values = sampler.Stream(static_cast<size_t>(flags.GetInt("tuples")), rng);
  } else if (kind == "tpch-orders" || kind == "tpch-lineitem") {
    const TpchLiteData data = GenerateTpchLite(flags.GetDouble("scale"), seed);
    values = kind == "tpch-orders" ? data.orders : data.lineitem;
  } else {
    std::fprintf(stderr, "generate: unknown --kind '%s'\n", kind.c_str());
    return 1;
  }
  if (flags.GetBool("shuffle")) {
    Xoshiro256 rng(MixSeed(seed, 0x5f));
    Shuffle(values, rng);
  }
  WriteValuesFile(out, values);
  std::printf("wrote %zu values to %s\n", values.size(), out.c_str());
  return 0;
}

int CmdExact(int argc, char** argv) {
  Flags flags;
  flags.Define("agg", "selfjoin", "selfjoin | join");
  flags.Define("in", "", "dataset file (required)");
  flags.Define("in-g", "", "second dataset file (join only)");
  if (!flags.Parse(argc, argv)) return 1;
  const std::string agg = flags.GetString("agg");
  const auto values_f = ReadValuesFile(flags.GetString("in"));
  const FrequencyVector f = FrequencyVector::FromStream(values_f);
  if (agg == "selfjoin") {
    std::printf("%.17g\n", ExactSelfJoinSize(f));
    return 0;
  }
  if (agg == "join") {
    const auto values_g = ReadValuesFile(flags.GetString("in-g"));
    const FrequencyVector g = FrequencyVector::FromStream(values_g);
    std::printf("%.17g\n", ExactJoinSize(f, g));
    return 0;
  }
  std::fprintf(stderr, "exact: unknown --agg '%s'\n", agg.c_str());
  return 1;
}

int CmdEstimate(int argc, char** argv) {
  Flags flags;
  flags.Define("agg", "selfjoin", "selfjoin | join");
  flags.Define("in", "", "dataset file (required)");
  flags.Define("in-g", "", "second dataset file (join only)");
  flags.Define("sampling", "none", "none | bernoulli | wr | wor");
  flags.Define("p", "0.1", "bernoulli keep-probability");
  flags.Define("fraction", "0.1", "wr/wor sample fraction");
  flags.Define("sampler-seed", "7", "sampling randomness seed");
  DefineSketchFlags(flags);
  if (!flags.Parse(argc, argv)) return 1;
  const std::string agg = flags.GetString("agg");
  const std::string sampling = flags.GetString("sampling");
  const SketchParams params = SketchParamsFromFlags(flags);
  const uint64_t sampler_seed = flags.GetInt("sampler-seed");

  const auto stream_f = ReadValuesFile(flags.GetString("in"));
  std::vector<uint64_t> stream_g;
  const bool join = agg == "join";
  if (join) {
    stream_g = ReadValuesFile(flags.GetString("in-g"));
  } else if (agg != "selfjoin") {
    std::fprintf(stderr, "estimate: unknown --agg '%s'\n", agg.c_str());
    return 1;
  }

  double estimate = 0;
  if (sampling == "none") {
    if (join) {
      estimate = FagmsJoinEstimate(stream_f, stream_g, params);
    } else {
      estimate = FagmsSelfJoinEstimate(stream_f, params);
    }
  } else if (sampling == "bernoulli") {
    const double p = flags.GetDouble("p");
    BernoulliSketchEstimator<FagmsSketch> ef(p, params,
                                             MixSeed(sampler_seed, 1));
    ef.ProcessStreamWithSkips(stream_f);
    if (join) {
      BernoulliSketchEstimator<FagmsSketch> eg(p, params,
                                               MixSeed(sampler_seed, 2));
      eg.ProcessStreamWithSkips(stream_g);
      estimate = ef.EstimateJoin(eg);
    } else {
      estimate = ef.EstimateSelfJoin();
    }
  } else if (sampling == "wr" || sampling == "wor") {
    const double fraction = flags.GetDouble("fraction");
    const SamplingScheme scheme = sampling == "wr"
                                      ? SamplingScheme::kWithReplacement
                                      : SamplingScheme::kWithoutReplacement;
    Xoshiro256 rng(sampler_seed);
    auto sample_of = [&](const std::vector<uint64_t>& stream) {
      const uint64_t m = std::max<uint64_t>(
          2, static_cast<uint64_t>(fraction *
                                   static_cast<double>(stream.size())));
      return scheme == SamplingScheme::kWithReplacement
                 ? SampleWithReplacement(stream, m, rng)
                 : SampleWithoutReplacement(stream, m, rng);
    };
    SampledStreamEstimator<FagmsSketch> ef(scheme, stream_f.size(), params);
    ef.UpdateAll(sample_of(stream_f));
    if (join) {
      SampledStreamEstimator<FagmsSketch> eg(scheme, stream_g.size(),
                                             params);
      eg.UpdateAll(sample_of(stream_g));
      estimate = ef.EstimateJoin(eg);
    } else {
      estimate = ef.EstimateSelfJoin();
    }
  } else {
    std::fprintf(stderr, "estimate: unknown --sampling '%s'\n",
                 sampling.c_str());
    return 1;
  }
  std::printf("%.17g\n", estimate);
  return 0;
}

int CmdSketch(int argc, char** argv) {
  Flags flags;
  flags.Define("in", "", "dataset file (required)");
  flags.Define("out", "", "output sketch file (required)");
  DefineSketchFlags(flags);
  if (!flags.Parse(argc, argv)) return 1;
  const std::string out = flags.GetString("out");
  if (flags.GetString("in").empty() || out.empty()) {
    std::fprintf(stderr, "sketch: --in and --out are required\n");
    return 1;
  }
  const auto stream = ReadValuesFile(flags.GetString("in"));
  const FagmsSketch sketch =
      BuildFagmsSketch(stream, SketchParamsFromFlags(flags));
  WriteBinaryFile(out, SerializeSketch(sketch));
  std::printf("sketched %zu tuples into %s (%zu bytes)\n", stream.size(),
              out.c_str(), SerializeSketch(sketch).size());
  return 0;
}

int CmdCombine(int argc, char** argv) {
  Flags flags;
  flags.Define("agg", "selfjoin", "selfjoin | join | merge");
  flags.Define("a", "", "first sketch file (required)");
  flags.Define("b", "", "second sketch file (join/merge)");
  flags.Define("out", "", "merge: output sketch file");
  if (!flags.Parse(argc, argv)) return 1;
  const std::string agg = flags.GetString("agg");
  FagmsSketch a = DeserializeFagms(ReadBinaryFile(flags.GetString("a")));
  if (agg == "selfjoin") {
    std::printf("%.17g\n", a.EstimateSelfJoin());
    return 0;
  }
  FagmsSketch b = DeserializeFagms(ReadBinaryFile(flags.GetString("b")));
  if (agg == "join") {
    std::printf("%.17g\n", a.EstimateJoin(b));
    return 0;
  }
  if (agg == "merge") {
    a.Merge(b);
    WriteBinaryFile(flags.GetString("out"), SerializeSketch(a));
    std::printf("merged sketch written to %s\n",
                flags.GetString("out").c_str());
    return 0;
  }
  std::fprintf(stderr, "combine: unknown --agg '%s'\n", agg.c_str());
  return 1;
}

int CmdStats(int argc, char** argv) {
  Flags flags;
  flags.Define("in", "", "dataset file (required)");
  flags.Define("kmv-k", "1024", "KMV minima retained");
  DefineSketchFlags(flags);
  if (!flags.Parse(argc, argv)) return 1;
  const auto values = ReadValuesFile(flags.GetString("in"));
  if (values.empty()) {
    std::fprintf(stderr, "stats: dataset is empty\n");
    return 1;
  }
  KmvSketch kmv(static_cast<size_t>(flags.GetInt("kmv-k")),
                flags.GetInt("seed"));
  FagmsSketch f2(SketchParamsFromFlags(flags));
  for (uint64_t v : values) {
    kmv.Update(v);
    f2.Update(v);
  }
  std::printf("count    %zu\n", values.size());
  std::printf("distinct %.17g\n", kmv.EstimateDistinct());
  std::printf("f2       %.17g\n", f2.EstimateSelfJoin());
  return 0;
}

int CmdTopK(int argc, char** argv) {
  Flags flags;
  flags.Define("in", "", "dataset file (required)");
  flags.Define("k", "10", "number of heavy hitters to report");
  flags.Define("domain", "0",
               "key domain size (0 = max value in the file + 1)");
  flags.Define("p", "1", "Bernoulli keep-probability applied while reading");
  flags.Define("sampler-seed", "7", "sampling randomness seed");
  DefineSketchFlags(flags);
  if (!flags.Parse(argc, argv)) return 1;
  const auto values = ReadValuesFile(flags.GetString("in"));
  size_t domain = static_cast<size_t>(flags.GetInt("domain"));
  if (domain == 0) {
    for (uint64_t v : values) {
      domain = std::max<size_t>(domain, static_cast<size_t>(v) + 1);
    }
  }
  SketchParams params = SketchParamsFromFlags(flags);
  params.rows = std::max<size_t>(params.rows, 5);  // medians need rows

  const double p = flags.GetDouble("p");
  FagmsSketch sketch(params);
  BernoulliSampler sampler(p, flags.GetInt("sampler-seed"));
  for (uint64_t v : values) {
    if (p >= 1.0 || sampler.Keep()) sketch.Update(v);
  }
  const auto top = TopKFrequent(sketch, domain,
                                static_cast<size_t>(flags.GetInt("k")),
                                1.0 / p);
  for (const auto& hitter : top) {
    std::printf("%llu %.6g\n",
                static_cast<unsigned long long>(hitter.key),
                hitter.estimated_frequency);
  }
  return 0;
}

int CmdRange(int argc, char** argv) {
  Flags flags;
  flags.Define("in", "", "dataset file (required)");
  flags.Define("log-universe", "20", "keys must be < 2^log-universe");
  flags.Define("lo", "0", "range lower bound (inclusive)");
  flags.Define("hi", "0", "range upper bound (inclusive)");
  flags.Define("quantile", "-1",
               "when in (0,1]: report the quantile key instead of a range");
  DefineSketchFlags(flags);
  if (!flags.Parse(argc, argv)) return 1;
  const auto values = ReadValuesFile(flags.GetString("in"));
  DyadicRangeSketch sketch(static_cast<int>(flags.GetInt("log-universe")),
                           SketchParamsFromFlags(flags));
  for (uint64_t v : values) sketch.Update(v);
  const double quantile = flags.GetDouble("quantile");
  if (quantile > 0.0) {
    std::printf("%llu\n", static_cast<unsigned long long>(
                              sketch.EstimateQuantile(quantile)));
    return 0;
  }
  std::printf("%.17g\n",
              sketch.EstimateRange(flags.GetInt("lo"), flags.GetInt("hi")));
  return 0;
}

// Runs the streaming ingest path end to end on the sharded engine: source
// (file or synthetic Zipf) → optional fault injection on the pull path →
// router → per-lane positional Bernoulli shed (keyed by --shed-seed, so the
// same tuples survive at any --shards; optionally retargeted per window by
// a ShedController) → F-AGMS partials, merged at the end. Checkpoints carry
// the per-shard section, so a resume may use a different --shards. Reports
// the realized-rate-corrected self-join estimate with its Eq 26 confidence
// interval alongside the exact answer, so accuracy-vs-load curves fall out
// of a flag sweep. Nothing printed is a wall-clock timing, so a run without
// --shed-target-tps prints the same bytes every time.
int CmdStream(int argc, char** argv) {
  Flags flags;
  flags.Define("in", "", "dataset file (empty: synthetic zipf stream)");
  flags.Define("domain", "100000", "zipf: domain size");
  flags.Define("tuples", "1000000", "zipf: number of tuples");
  flags.Define("skew", "1.0", "zipf: coefficient");
  flags.Define("source-seed", "1", "zipf source seed");
  flags.Define("shed-p", "1", "initial Bernoulli keep-probability");
  flags.Define("shed-seed", "7",
               "root seed of the positional shed sampler (tuple i is kept "
               "iff a hash of (seed, i) falls under p)");
  flags.Define("shed-budget", "0",
               "adaptive: kept-tuple budget per window (deterministic)");
  flags.Define("shed-target-tps", "0",
               "adaptive: wall-clock kept-tuples/sec target "
               "(nondeterministic; shed-budget takes precedence)");
  flags.Define("shed-window", "8192", "controller window in offered tuples");
  flags.Define("min-p", "0.05", "adaptive floor for the shed rate");
  flags.Define("checkpoint-every", "0",
               "checkpoint period in tuples (0 = off)");
  flags.Define("checkpoint-out", "", "checkpoint file (atomically replaced)");
  flags.Define("resume", "", "checkpoint file to resume from");
  flags.Define("fault-profile", "none", "none | mild | harsh");
  flags.Define("fault-seed", "0",
               "fault seed (0: SKETCHSAMPLE_FAULT_SEED env or 77)");
  flags.Define("stall-retries", "64",
               "zero-length pulls to ride out before degrading");
  flags.Define("max-tuples", "0",
               "stop after this many tuples (0 = run to end; simulates a "
               "mid-stream kill for checkpoint testing)");
  flags.Define("shards", "1",
               "worker lanes of the ingest engine (values below 1 run one "
               "lane); without --shed-target-tps every count prints the "
               "same estimate");
  flags.Define("level", "0.95", "confidence level for the error bars");
  DefineSketchFlags(flags);
  if (!flags.Parse(argc, argv)) return 1;

  // Materialize the input stream: exact statistics (for the honest error
  // bars and the printed exact answer) need the full frequency vector, and
  // a VectorSource over deterministic contents is what makes checkpoint
  // resume from a separate process reconstruct the same stream.
  std::vector<uint64_t> values;
  if (!flags.GetString("in").empty()) {
    values = ReadValuesFile(flags.GetString("in"));
  } else {
    ZipfSampler sampler(static_cast<size_t>(flags.GetInt("domain")),
                        flags.GetDouble("skew"));
    Xoshiro256 rng(flags.GetInt("source-seed"));
    values = sampler.Stream(static_cast<size_t>(flags.GetInt("tuples")), rng);
  }
  if (values.empty()) {
    std::fprintf(stderr, "stream: input stream is empty\n");
    return 1;
  }

  const SketchParams params = SketchParamsFromFlags(flags);
  const double shed_p = flags.GetDouble("shed-p");
  const double budget = flags.GetDouble("shed-budget");
  const double target_tps = flags.GetDouble("shed-target-tps");
  const bool adaptive = budget > 0.0 || target_tps > 0.0;

  std::optional<ShedController> controller;
  if (adaptive) {
    ShedControllerOptions copts;
    copts.initial_p = shed_p;
    copts.min_p = flags.GetDouble("min-p");
    copts.capacity_per_window = budget;
    copts.target_tps = target_tps;
    copts.window_tuples = static_cast<uint64_t>(flags.GetInt("shed-window"));
    controller.emplace(copts);  // validates the knobs, throws on nonsense
  }

  ShardEngineOptions eopts;
  eopts.shards =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("shards")));
  eopts.shed_p = shed_p;
  eopts.seed = static_cast<uint64_t>(flags.GetInt("shed-seed"));
  if (adaptive) eopts.controller = &*controller;
  eopts.max_tuples = static_cast<uint64_t>(flags.GetInt("max-tuples"));
  eopts.stall_retries = static_cast<uint64_t>(flags.GetInt("stall-retries"));

  std::optional<FileCheckpointSink> checkpoint_sink;
  const std::string checkpoint_out = flags.GetString("checkpoint-out");
  const uint64_t checkpoint_every =
      static_cast<uint64_t>(flags.GetInt("checkpoint-every"));
  if (checkpoint_every > 0 && !checkpoint_out.empty()) {
    checkpoint_sink.emplace(checkpoint_out);
    eopts.checkpoint_sink = &*checkpoint_sink;
    eopts.checkpoint_every = checkpoint_every;
  }

  ShardEngine<FagmsSketch> engine(FagmsSketch(params), eopts);

  VectorSource vector_source(values);
  StreamSource* source = &vector_source;
  const FaultProfile profile =
      FaultProfile::FromName(flags.GetString("fault-profile"));
  uint64_t fault_seed = static_cast<uint64_t>(flags.GetInt("fault-seed"));
  if (fault_seed == 0) fault_seed = FaultSeedFromEnv(77);
  std::optional<FaultInjectingSource> faulty;
  if (profile.Active()) {
    faulty.emplace(&vector_source, profile, fault_seed);
    source = &*faulty;
  }

  // Resume: a checkpoint without a shard section (or for another stream)
  // throws CheckpointError, which RunCli turns into a nonzero exit.
  const std::string resume_path = flags.GetString("resume");
  if (!resume_path.empty()) {
    engine.Restore(DeserializeCheckpoint(ReadBinaryFile(resume_path)),
                   *source);
  }

  const ShardEngineStats stats = engine.Run(*source);

  // Honest reporting for the adaptive run: correct at the realized rate
  // (Props 13/14) and widen the interval per Eq 26 evaluated there.
  const FrequencyVector f = FrequencyVector::FromStream(values);
  const JoinStatistics join_stats = ComputeJoinStatistics(f, f);
  const double realized_p =
      engine.total_seen() > 0
          ? static_cast<double>(engine.total_kept()) /
                static_cast<double>(engine.total_seen())
          : engine.p();
  const double estimate = RealizedSelfJoinEstimate(
      engine.merged().EstimateSelfJoin(), realized_p, engine.total_kept());
  const ConfidenceInterval ci =
      RealizedSelfJoinInterval(estimate, join_stats, realized_p,
                               params.buckets, flags.GetDouble("level"));

  std::printf("shards      %llu\n",
              static_cast<unsigned long long>(eopts.shards));
  std::printf("tuples      %llu\n",
              static_cast<unsigned long long>(engine.total_seen()));
  std::printf("kept        %llu\n",
              static_cast<unsigned long long>(engine.total_kept()));
  std::printf("realized_p  %.17g\n", realized_p);
  std::printf("final_p     %.17g\n", stats.final_p);
  std::printf("windows     %llu\n",
              static_cast<unsigned long long>(
                  controller ? controller->windows() : stats.windows));
  std::printf("checkpoints %llu\n",
              static_cast<unsigned long long>(stats.checkpoints));
  if (profile.Active()) {
    std::printf("faults      %llu\n",
                static_cast<unsigned long long>(faulty->faults_injected()));
    std::printf("fault_seed  %llu\n",
                static_cast<unsigned long long>(fault_seed));
  }
  std::printf("estimate    %.17g\n", estimate);
  std::printf("exact       %.17g\n", ExactSelfJoinSize(f));
  std::printf("ci          %.17g %.17g\n", ci.low, ci.high);
  std::printf("outcome     %s\n", stats.ended     ? "ended"
                                  : stats.stalled ? "stalled"
                                                  : "stopped");
  return 0;
}

}  // namespace

int RunCli(int argc, char** argv) {
  if (argc < 2) {
    PrintTopUsage();
    return 1;
  }
  const std::string command = argv[1];
  // Shift argv so subcommands see their own flags as argv[1..].
  int sub_argc = argc - 1;
  char** sub_argv = argv + 1;
  try {
    if (command == "generate") return CmdGenerate(sub_argc, sub_argv);
    if (command == "exact") return CmdExact(sub_argc, sub_argv);
    if (command == "estimate") return CmdEstimate(sub_argc, sub_argv);
    if (command == "sketch") return CmdSketch(sub_argc, sub_argv);
    if (command == "combine") return CmdCombine(sub_argc, sub_argv);
    if (command == "stats") return CmdStats(sub_argc, sub_argv);
    if (command == "topk") return CmdTopK(sub_argc, sub_argv);
    if (command == "range") return CmdRange(sub_argc, sub_argv);
    if (command == "stream") return CmdStream(sub_argc, sub_argv);
    if (command == "serve") return CmdServe(sub_argc, sub_argv);
    if (command == "offline") return CmdOffline(sub_argc, sub_argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sketchsample %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown subcommand: %s\n", command.c_str());
  PrintTopUsage();
  return 1;
}

}  // namespace cli
}  // namespace sketchsample
