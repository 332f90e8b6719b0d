// Reproduces Table 5 (node-classification ROC AUC on Reddit / Wikipedia /
// MOOC, 7 models) and Table 12 (node-classification efficiency).
// BenchTemp's point here: the original CAWN/NeurTW/NAT releases never
// implemented node classification; the unified pipeline runs it for all
// seven models.

#include "bench/bench_common.h"

int main() {
  benchtemp::bench::BenchArtifact artifact("table5_node_classification");
  using namespace benchtemp;
  const bench::GridConfig grid = bench::DefaultGrid();
  std::printf(
      "Table 5 / Table 12 reproduction: dynamic node classification\n\n");

  const auto& kinds = models::PaperModels();
  std::printf("%-12s", "Dataset");
  for (models::ModelKind kind : kinds) {
    std::printf("%18s", models::ModelKindName(kind));
  }
  std::printf("\n");

  struct EffRow {
    std::string dataset;
    std::string runtime[7], epochs[7], ram[7], state[7];
  };
  std::vector<EffRow> efficiency;

  for (const char* name : {"Reddit", "Wikipedia", "MOOC"}) {
    const datagen::DatasetSpec* spec = datagen::FindDataset(name);
    graph::TemporalGraph g = bench::LoadBenchmark(*spec, grid);
    std::printf("%-12s", name);
    EffRow eff_row{name, {}, {}, {}, {}};
    for (size_t m = 0; m < kinds.size(); ++m) {
      bench::NcCell cell;
      core::EfficiencyStats eff;
      for (int run = 0; run < grid.runs; ++run) {
        core::NodeClassificationJob job;
        job.graph = &g;
        job.num_users = spec->config.num_users;
        job.kind = kinds[m];
        job.model_config = bench::ModelConfigFor(kinds[m], *spec, grid);
        job.train_config = bench::TrainConfigFor(kinds[m], grid,
                                                 2000 + 13 * run);
        job.pretrain_epochs = bench::IsWalkModel(kinds[m]) ? 1 : 3;
        const core::NodeClassificationResult result =
            core::RunNodeClassification(job);
        cell.Add(result);
        eff = result.efficiency;
      }
      std::printf("   %s",
                  cell.Format(&core::NodeClassificationResult::test_auc)
                      .c_str());
      std::fflush(stdout);
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.3f", eff.seconds_per_epoch);
      eff_row.runtime[m] = buf;
      std::snprintf(buf, sizeof(buf), "%d", eff.best_epoch + 1);
      eff_row.epochs[m] = eff.converged ? buf : "x";
      std::snprintf(buf, sizeof(buf), "%.2f", eff.max_rss_gb);
      eff_row.ram[m] = buf;
      std::snprintf(buf, sizeof(buf), "%.3f",
                    static_cast<double>(eff.state_bytes +
                                        eff.parameter_bytes) /
                        (1024.0 * 1024.0));
      eff_row.state[m] = buf;
    }
    std::printf("\n");
    efficiency.push_back(eff_row);
  }

  auto print_block = [&](const char* title, auto member) {
    std::printf("\n=== %s (Table 12) ===\n%-12s", title, "Dataset");
    for (models::ModelKind kind : kinds) {
      std::printf("%12s", models::ModelKindName(kind));
    }
    std::printf("\n");
    for (const EffRow& row : efficiency) {
      std::printf("%-12s", row.dataset.c_str());
      for (size_t m = 0; m < kinds.size(); ++m) {
        std::printf("%12s", (row.*member)[m].c_str());
      }
      std::printf("\n");
    }
  };
  print_block("Runtime (s/epoch)", &EffRow::runtime);
  print_block("Epochs (decoder, to convergence)", &EffRow::epochs);
  print_block("RAM (GB)", &EffRow::ram);
  print_block("State+params (MB) [GPU-memory proxy]", &EffRow::state);
  return 0;
}
