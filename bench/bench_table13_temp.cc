// Reproduces the TeMP appendix results: Table 13 (TeMP link-prediction AUC
// and AP under all four settings on the 15 datasets), Table 14 (TeMP
// efficiency), and Table 15 (TeMP node classification on Reddit /
// Wikipedia / MOOC).

#include "bench/bench_common.h"

int main() {
  benchtemp::bench::BenchArtifact artifact("table13_temp");
  using namespace benchtemp;
  const bench::GridConfig grid = bench::DefaultGrid();
  std::printf("Table 13/14/15 reproduction: TeMP (the paper's own model)\n\n");

  std::printf("=== Table 13: TeMP link prediction (AUC | AP) ===\n");
  std::printf("%-12s %22s %22s %22s %22s\n", "Dataset", "Transductive",
              "Inductive", "New-Old", "New-New");
  std::printf("=== with Table 14 efficiency appended per row ===\n");
  for (const datagen::DatasetSpec& spec :
       bench::SelectedDatasets(datagen::MainDatasets())) {
    graph::TemporalGraph g = bench::LoadBenchmark(spec, grid);
    const bench::AggregatedLp agg =
        bench::RunAggregatedLp(spec, g, models::ModelKind::kTemp, grid);
    std::printf("%-12s", spec.name.c_str());
    for (int s = 0; s < 4; ++s) {
      std::printf("  %.4f±%.4f|%.4f", agg.auc[s].mean, agg.auc[s].std,
                  agg.ap[s].mean);
    }
    std::printf("  [%.3fs/ep, %d ep, %.2fGB, %.3fMB]\n",
                agg.efficiency.seconds_per_epoch,
                agg.efficiency.best_epoch + 1, agg.efficiency.max_rss_gb,
                static_cast<double>(agg.efficiency.state_bytes +
                                    agg.efficiency.parameter_bytes) /
                    (1024.0 * 1024.0));
    std::fflush(stdout);
  }

  std::printf("\n=== Table 15: TeMP node classification ===\n");
  for (const char* name : {"Reddit", "Wikipedia", "MOOC"}) {
    const datagen::DatasetSpec* spec = datagen::FindDataset(name);
    graph::TemporalGraph g = bench::LoadBenchmark(*spec, grid);
    bench::NcCell cell;
    core::EfficiencyStats eff;
    for (int run = 0; run < grid.runs; ++run) {
      core::NodeClassificationJob job;
      job.graph = &g;
      job.num_users = spec->config.num_users;
      job.kind = models::ModelKind::kTemp;
      job.model_config =
          bench::ModelConfigFor(models::ModelKind::kTemp, *spec, grid);
      job.train_config = bench::TrainConfigFor(models::ModelKind::kTemp,
                                               grid, 3000 + run);
      const core::NodeClassificationResult result =
          core::RunNodeClassification(job);
      cell.Add(result);
      eff = result.efficiency;
    }
    std::printf("%-12s AUC %s  [%.3fs/ep, %d ep, %.2fGB]\n", name,
                cell.Format(&core::NodeClassificationResult::test_auc).c_str(),
                eff.seconds_per_epoch, eff.best_epoch + 1, eff.max_rss_gb);
  }
  std::printf(
      "\nExpected shape (paper): TeMP is competitive transductively, lags "
      "the walk models inductively, and is efficient (low state, fast "
      "epochs).\n");
  return 0;
}
