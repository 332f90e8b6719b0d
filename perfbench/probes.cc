#include "probes.h"

#include <algorithm>
#include <vector>

#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "tensor/kernels/kernels.h"
#include "tensor/random.h"
#include "trace.h"

namespace benchtemp::perfbench {

// peak.cc
float FmaLoop(int64_t iters, float x, float y, double* flops);

namespace {
/// Keeps the FMA loop's checksum observable.
volatile float g_fma_sink = 0.0f;
}  // namespace

std::string GemmShape::MetricName() const {
  return "kernels.gemm_gflops." + kernel + "." + std::to_string(n) + "x" +
         std::to_string(k) + "x" + std::to_string(m);
}

std::vector<GemmShape> DominantShapes(const Workload& w) {
  const int64_t b = w.train.batch_size;
  const int64_t d = w.model.embedding_dim;
  const int64_t de = w.data.edge_feature_dim;
  const int64_t dt = w.model.time_dim;
  switch (w.kind) {
    case models::ModelKind::kTgn: {
      // Neighbour attention: one row per (query, neighbour) pair over
      // [memory | edge features | time encoding]; the ranking pass runs
      // the same projection over every candidate's neighbours.
      const int64_t rows = b * w.model.num_neighbors;
      const int64_t width = d + de + dt;
      return {{"Gemm", rows, width, d},
              {"GemmNT", rows, width, d},
              {"GemmTN", rows, width, d},
              {"Gemm", rows * w.train.mrr_k, width, d}};
    }
    case models::ModelKind::kCawn: {
      // Walk encoder: one row per (endpoint, walk) over [edge features |
      // time encoding | CAW positional counts of both walk sets].
      const int64_t rows = b * 2 * w.model.num_walks;
      const int64_t width = de + dt + 2 * (w.model.walk_length + 1);
      return {{"Gemm", rows, width, d},
              {"GemmNT", rows, width, d},
              {"GemmTN", rows, width, d},
              {"Gemm", rows, d, d}};
    }
    default: {
      // JODIE: tall ScoreCandidates projections over batch * k candidate
      // rows, and the narrow per-batch training projections.
      const int64_t tall = b * w.train.mrr_k;
      return {{"Gemm", tall, w.node_feature_dim, d},
              {"Gemm", tall, d, d},
              {"Gemm", b, d, d},
              {"GemmTN", b, w.node_feature_dim, d}};
    }
  }
}

std::vector<GemmShape> AllShapes() {
  std::vector<GemmShape> out;
  for (const std::string& name : WorkloadNames()) {
    Workload w;
    MakeWorkload(name, 0, &w);
    for (const GemmShape& s : DominantShapes(w)) {
      const bool seen =
          std::any_of(out.begin(), out.end(), [&](const GemmShape& o) {
            return o.MetricName() == s.MetricName();
          });
      if (!seen) out.push_back(s);
    }
  }
  return out;
}

double ProbeGemm(const GemmShape& s, double seconds) {
  // Operand sizes per kernel: Gemm C[n,m] += A[n,k] B[k,m]; GemmNT
  // dA[n,k] += dC[n,m] B[k,m]^T; GemmTN dB[k,m] += A[n,k]^T dC[n,m].
  tensor::Rng rng(s.n * 131 + s.k * 7 + s.m);
  auto filled = [&rng](int64_t size) {
    std::vector<float> v(static_cast<size_t>(size));
    for (float& x : v) x = rng.UniformReal(-1.0f, 1.0f);
    return v;
  };
  const std::vector<float> nk = filled(s.n * s.k);
  const std::vector<float> km = filled(s.k * s.m);
  const std::vector<float> nm = filled(s.n * s.m);
  std::vector<float> out(static_cast<size_t>(
      s.kernel == "GemmTN" ? s.k * s.m
                           : (s.kernel == "GemmNT" ? s.n * s.k : s.n * s.m)));
  auto call = [&] {
    if (s.kernel == "Gemm") {
      tensor::kernels::Gemm(nk.data(), km.data(), out.data(), s.n, s.k, s.m);
    } else if (s.kernel == "GemmNT") {
      tensor::kernels::GemmNT(nm.data(), km.data(), out.data(), s.n, s.k,
                              s.m);
    } else {
      tensor::kernels::GemmTN(nk.data(), nm.data(), out.data(), s.n, s.k,
                              s.m);
    }
  };
  call();  // warm caches and the pool
  std::vector<double> per_call;
  const double start = obs::NowSeconds();
  while (per_call.size() < 11 ||
         (obs::NowSeconds() - start < seconds && per_call.size() < 20000)) {
    const double t0 = obs::NowSeconds();
    call();
    per_call.push_back(obs::NowSeconds() - t0);
  }
  const double flops = 2.0 * static_cast<double>(s.n * s.k * s.m);
  return flops / Median(per_call) * 1e-9;
}

double PeakGflops() {
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    double flops = 0.0;
    const double t0 = obs::NowSeconds();
    g_fma_sink = FmaLoop(2000000, 0.9999f, 1e-4f, &flops);
    best = std::max(best, flops / (obs::NowSeconds() - t0));
  }
  return best * 1e-9;
}

}  // namespace benchtemp::perfbench
