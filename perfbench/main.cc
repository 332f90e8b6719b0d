// perfbench: the repo's end-to-end benchmark driver (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 sets the workload up several times, then runs its
// link-prediction job back to back for --seconds and reports the
// end-to-end metrics (medians over the set-ups and jobs). --trace 1 runs
// the job once with the trainer's metrics on, replays it layer by layer
// under benchmark-side spans, probes the GEMM kernels, and reports the
// per-layer metrics. The last stdout line is the result JSON.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "obs/metrics.h"
#include "probes.h"
#include "replay.h"
#include "runtime/thread_pool.h"
#include "trace.h"
#include "workloads.h"

namespace benchtemp::perfbench {
namespace {

constexpr int kSetups = 3;
/// Traced passes (job + replay): at least kMinPasses, and more, up to
/// kMaxPasses, while noise keeps the fidelity estimate out of tolerance.
constexpr int kMinPasses = 3;
constexpr int kMaxPasses = 5;
/// Largest relative gap allowed between the replay's compute spans and
/// the trainer's forward + backward phases.
constexpr double kFidelityTolerance = 0.20;
constexpr double kProbeSeconds = 0.15;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  int jobs = 0;                // > 0: exactly this many jobs (untraced)
  double untraced_job_s = 0;   // trace 1: job_s of an untraced run
  std::string expect_digest;   // trace 1: digest of an untraced run
  std::string trace_dir = ".";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--jobs <n>] "
               "[--untraced-job-s <s>] [--expect-digest <hex>] "
               "[--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value);
    } else if (flag == "--trace") {
      a.trace = std::atoi(value);
    } else if (flag == "--jobs") {
      a.jobs = std::atoi(value);
    } else if (flag == "--untraced-job-s") {
      a.untraced_job_s = std::atof(value);
    } else if (flag == "--expect-digest") {
      a.expect_digest = value;
    } else if (flag == "--trace-dir") {
      a.trace_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) Usage("--trace must be 0 or 1");
  return a;
}

void PrintResult(bool correct, int attempted, int failed,
                 const MetricList& metrics) {
  for (const MetricList::Entry& e : metrics.entries) {
    std::printf("  %-44s %16.6g %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", attempted, failed, metrics.Json().c_str());
  std::fflush(stdout);
}

/// Runs one job and checks it; prints its digest line.
struct JobRun {
  core::LinkPredictionResult result;
  Verdict verdict;
  double job_s = 0.0;
};

JobRun RunJob(const Workload& w, const graph::TemporalGraph& graph, int i) {
  JobRun run;
  const core::LinkPredictionJob job = MakeJob(w, graph);
  const double t0 = obs::NowSeconds();
  run.result = core::RunLinkPrediction(job);
  run.job_s = obs::NowSeconds() - t0;
  run.verdict = CheckResult(w, run.result);
  std::printf("job %d job_s=%.4f result_digest=%s %s%s\n", i, run.job_s,
              DigestHex(run.verdict.digest).c_str(),
              run.verdict.ok ? "ok" : "FAILED: ",
              run.verdict.reason.c_str());
  return run;
}

int RunUntraced(const Args& args, const Workload& w) {
  const double start = obs::NowSeconds();
  const Inputs inputs = BuildInputs(w);
  std::vector<double> setup_s = {inputs.setup_s()};
  // The remaining set-ups run after the jobs, so peak RSS sees one graph;
  // keep time for them inside the window.
  const double job_window = args.seconds - (kSetups - 1) * setup_s[0];
  std::vector<double> job_s, train_eps, eval_eps;
  int attempted = 0, failed = 0;
  std::string first_digest;
  double test_auc = 0.0, test_mrr = 0.0;
  for (;;) {
    const JobRun run = RunJob(w, inputs.graph, attempted);
    ++attempted;
    const std::string digest = DigestHex(run.verdict.digest);
    if (first_digest.empty()) first_digest = digest;
    // One seed, one program: every job of a run must agree bit for bit.
    if (!run.verdict.ok || digest != first_digest) ++failed;
    job_s.push_back(run.job_s);
    train_eps.push_back(run.result.efficiency.train_events_per_second);
    eval_eps.push_back(run.result.efficiency.eval_events_per_second);
    test_auc = run.result.test[0].auc;
    test_mrr = run.result.test_ranking[0].mrr;
    if (args.jobs > 0) {
      if (attempted >= args.jobs) break;
      continue;
    }
    // Start another job only if it should finish inside the window, so a
    // run lasts --seconds and no longer.
    const double elapsed = obs::NowSeconds() - start;
    if (elapsed + run.job_s >= job_window) break;
  }
  const double peak_rss_mb = core::MaxRssGb() * 1024.0;
  for (int i = 1; i < kSetups; ++i) setup_s.push_back(BuildInputs(w).setup_s());

  MetricList m;
  m.Add("train_events_per_s", Median(train_eps), "events/s");
  m.Add("eval_edges_per_s", Median(eval_eps), "edges/s");
  m.Add("job_s", Median(job_s), "s");
  m.Add("setup_s", Median(setup_s), "s");
  m.Add("peak_rss_mb", peak_rss_mb, "MB");
  m.Add("test_auc", test_auc, "auc");
  m.Add("test_mrr", test_mrr, "mrr");
  PrintResult(failed == 0, attempted, failed, m);
  return 0;
}

int RunTraced(const Args& args, const Workload& w) {
  Tracer tracer;
  Inputs inputs;
  {
    Tracer::Scope span(&tracer, "setup");
    inputs = BuildInputs(w);
  }

  // The job, with the trainer's phase timers and counters on, then its
  // replay; several times. The fidelity check takes the median over passes
  // of each pass's replay / trainer ratio: a job and its replay run back to
  // back, so they share the machine's state, and one disturbed pass cannot
  // move the median. A replay that really drifts stays out of tolerance
  // however many passes run. Metrics come from the last pass.
  JobRun run;
  ReplayResult replay;
  const double inf = std::numeric_limits<double>::infinity();
  double trainer_compute_s = inf, replay_compute_s = inf;
  std::vector<double> ratios;
  int failed = 0, passes = 0;
  auto fidelity = [&] { return Median(ratios); };
  while (passes < kMinPasses ||
         (passes < kMaxPasses &&
          std::fabs(fidelity() - 1.0) > kFidelityTolerance)) {
    const int pass = passes++;
    const int job_span = tracer.Begin("core.run_link_prediction", pass);
    run = RunJob(w, inputs.graph, pass);
    tracer.End(job_span);
    const std::string digest = DigestHex(run.verdict.digest);
    bool ok = run.verdict.ok;
    if (!args.expect_digest.empty() && digest != args.expect_digest) {
      std::fprintf(stderr, "perfbench: traced digest %s != untraced %s\n",
                   digest.c_str(), args.expect_digest.c_str());
      ok = false;
    }
    if (!ok) ++failed;
    const std::array<double, obs::kNumPhases>& phases =
        run.result.efficiency.phase_seconds;
    const double compute_s =
        phases[static_cast<size_t>(obs::Phase::kForward)] +
        phases[static_cast<size_t>(obs::Phase::kBackward)];
    {
      Tracer::Scope span(&tracer, "replay", pass);
      replay = ReplayJob(w, inputs.graph, &tracer);
    }
    std::fprintf(stderr,
                 "perfbench: pass %d job_s %.4f trainer forward+backward "
                 "%.4f s replay %.4f s\n",
                 pass, tracer.Duration(job_span), compute_s, replay.compute_s);
    ratios.push_back(compute_s > 0.0 ? replay.compute_s / compute_s : inf);
    trainer_compute_s = std::min(trainer_compute_s, compute_s);
    replay_compute_s = std::min(replay_compute_s, replay.compute_s);
  }
  const core::EfficiencyStats& eff = run.result.efficiency;

  // Kernel probes run on one thread: the peak they are compared with is a
  // single-core figure.
  runtime::ThreadPool::Global().SetNumThreads(1);
  MetricList gemm;
  double best_gemm = 0.0;
  for (const GemmShape& shape : AllShapes()) {
    Tracer::Scope span(&tracer, "kernels.gemm_probe");
    const double gflops = ProbeGemm(shape, kProbeSeconds);
    gemm.Add(shape.MetricName(), gflops, "GFLOP/s");
    best_gemm = std::max(best_gemm, gflops);
  }
  double peak = 0.0;
  {
    Tracer::Scope span(&tracer, "kernels.peak_probe");
    peak = PeakGflops();
  }
  runtime::ThreadPool::Global().SetNumThreads(kThreads);

  const auto phase = [&eff](obs::Phase p) {
    return eff.phase_seconds[static_cast<size_t>(p)];
  };

  MetricList m;
  m.Add("datagen.generate_s", inputs.generate_s, "s");
  m.Add("datagen.features_s", inputs.features_s, "s");
  m.entries.insert(m.entries.end(), replay.metrics.entries.begin(),
                   replay.metrics.entries.end());
  const double batches = static_cast<double>(eff.pipeline_batches);
  m.Add("pipeline.prepare_s", eff.pipeline_prepare_seconds, "s");
  m.Add("pipeline.wait_s", eff.pipeline_wait_seconds, "s");
  m.Add("pipeline.overlap_ratio", eff.pipeline_overlap_ratio, "ratio");
  m.Add("pipeline.prefetched_ratio",
        batches > 0 ? static_cast<double>(eff.pipeline_prefetched) / batches
                    : 0.0,
        "ratio");
  m.Add("models.state_kb", static_cast<double>(eff.state_bytes) / 1024.0,
        "kB");
  m.Add("kernels.achieved_gflops",
        trainer_compute_s > 0.0
            ? replay.compute_flops / trainer_compute_s * 1e-9
            : 0.0,
        "GFLOP/s");
  m.entries.insert(m.entries.end(), gemm.entries.begin(),
                   gemm.entries.end());
  m.Add("kernels.peak_gflops", peak, "GFLOP/s");
  m.Add("kernels.gemm_efficiency", peak > 0.0 ? best_gemm / peak : 0.0,
        "ratio");
  for (obs::Phase p : {obs::Phase::kSample, obs::Phase::kForward,
                       obs::Phase::kBackward, obs::Phase::kMemoryUpdate,
                       obs::Phase::kEval}) {
    m.Add(std::string("phase.") + obs::PhaseName(p) + "_s", phase(p), "s");
  }
  // Pass 0's job is its process's first, like the untraced reference job.
  const double traced_job_s = tracer.Durations("core.run_link_prediction")[0];
  m.Add("obs.trace_overhead",
        args.untraced_job_s > 0.0 ? traced_job_s / args.untraced_job_s - 1.0
                                  : 0.0,
        "ratio");

  // Layer self time: each span minus the time its child spans cover.
  std::fprintf(stderr, "%-28s %8s %12s %12s\n", "span", "count", "total_s",
               "self_s");
  for (const Tracer::LayerTime& t : tracer.LayerTimes()) {
    std::fprintf(stderr, "%-28s %8lld %12.4f %12.4f\n", t.name.c_str(),
                 static_cast<long long>(t.count), t.total_s, t.self_s);
  }
  const std::string path = args.trace_dir + "/trace-" + w.name + "-seed" +
                           std::to_string(args.seed) + ".json";
  if (tracer.WriteChromeJson(path)) {
    std::fprintf(stderr, "perfbench: wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }

  std::fprintf(stderr,
               "perfbench: replay fidelity %.3f (median over %d passes; "
               "fastest replay forward+backward+optimizer %.4f s, fastest "
               "trainer forward+backward %.4f s)\n",
               fidelity(), passes, replay_compute_s, trainer_compute_s);
  if (!(std::fabs(fidelity() - 1.0) <= kFidelityTolerance)) {
    std::fprintf(stderr,
                 "perfbench: replay fidelity check failed: median replay "
                 "forward+backward+optimizer / trainer forward+backward "
                 "ratio %.3f over %d passes, tolerance %.2f\n",
                 fidelity(), passes, kFidelityTolerance);
    return 3;
  }
  PrintResult(failed == 0, passes, failed, m);
  return 0;
}

}  // namespace
}  // namespace benchtemp::perfbench

int main(int argc, char** argv) {
  using namespace benchtemp::perfbench;
  const Args args = ParseArgs(argc, argv);
  // Fixed before anything reads them: the thread count is part of the
  // workload, and the trainer's metrics are on exactly in traced runs.
  setenv("BENCHTEMP_NUM_THREADS", std::to_string(kThreads).c_str(), 1);
  if (args.trace == 1) {
    setenv("BENCHTEMP_METRICS", "1", 1);
  } else {
    unsetenv("BENCHTEMP_METRICS");
  }
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, &w)) {
    Usage(("unknown workload " + args.workload).c_str());
  }
  return args.trace == 1 ? RunTraced(args, w) : RunUntraced(args, w);
}
