// Self-test of the benchmark's correctness check (ctest perfbench_selftest,
// or `python3 perfbench/run.py --selftest`).
//
//  1. Tiny versions of every workload must print the same result_digest at
//     1 and 2 threads and at pipeline depth 0 and 2, and pass the check.
//  2. The check must reject planted bad results, and the digest must move
//     when a checked output moves by one ulp.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "runtime/thread_pool.h"
#include "workloads.h"

using namespace benchtemp;
using namespace benchtemp::perfbench;

namespace {

int g_failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

void ExpectRejected(const Workload& w, core::LinkPredictionResult r,
                    const std::string& what) {
  Expect(!CheckResult(w, r).ok, "check accepts " + what);
}

}  // namespace

int main() {
  setenv("BENCHTEMP_NUM_THREADS", std::to_string(kThreads).c_str(), 1);
  for (const std::string& name : WorkloadNames()) {
    Workload w;
    MakeWorkload(name, 1, &w);
    w = Tiny(w);
    const Inputs inputs = BuildInputs(w);
    std::string reference;
    core::LinkPredictionResult good;
    for (int threads : {1, 2}) {
      runtime::ThreadPool::Global().SetNumThreads(threads);
      for (int depth : {0, 2}) {
        Workload variant = w;
        variant.train.pipeline_depth = depth;
        const core::LinkPredictionResult r =
            core::RunLinkPrediction(MakeJob(variant, inputs.graph));
        const Verdict v = CheckResult(variant, r);
        const std::string digest = DigestHex(v.digest);
        std::printf("%-11s threads=%d depth=%d result_digest=%s %s\n",
                    name.c_str(), threads, depth, digest.c_str(),
                    v.ok ? "ok" : v.reason.c_str());
        Expect(v.ok, name + ": check failed: " + v.reason);
        if (reference.empty()) {
          reference = digest;
          good = r;
        }
        Expect(digest == reference,
               name + ": digest differs at threads=" +
                   std::to_string(threads) + " depth=" +
                   std::to_string(depth));
      }
    }

    // Planted faults the check must catch.
    core::LinkPredictionResult bad = good;
    bad.annotation = "x";
    ExpectRejected(w, bad, "an 'x' annotation");
    bad = good;
    bad.status = models::ModelStatus::kRuntimeError;
    ExpectRejected(w, bad, "a runtime error");
    bad = good;
    bad.nan_retries = w.train.max_nan_retries + 1;
    ExpectRejected(w, bad, "a spent NaN-retry budget");
    bad = good;
    bad.test[2].auc = std::numeric_limits<double>::quiet_NaN();
    ExpectRejected(w, bad, "a NaN AUC");
    bad = good;
    bad.test[1].ap = 1.5;
    ExpectRejected(w, bad, "an AP above 1");
    bad = good;
    bad.test[3].count = 0;
    ExpectRejected(w, bad, "an empty setting");
    bad = good;
    bad.test_ranking[0].mrr = 0.0;
    ExpectRejected(w, bad, "a zero MRR");
    bad = good;
    bad.efficiency.epochs_run = w.train.max_epochs - 1;
    ExpectRejected(w, bad, "a short epoch budget");
    bad = good;
    bad.test[0].auc = std::nextafter(bad.test[0].auc, 0.0);
    Expect(CheckResult(w, bad).digest != CheckResult(w, good).digest,
           name + ": digest blind to a one-ulp AUC change");
  }
  std::printf("%s (%d failure%s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
