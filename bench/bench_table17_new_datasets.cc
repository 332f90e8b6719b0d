// Reproduces the new-dataset appendix study: Table 17 (AUC, with the
// Average Rank aggregation over the four large-scale datasets), Table 18
// (AP), Table 19 (node classification on the eBay datasets), and Tables
// 20/21 (efficiency on the new datasets).

#include "bench/bench_common.h"

int main() {
  benchtemp::bench::BenchArtifact artifact("table17_new_datasets");
  using namespace benchtemp;
  const bench::GridConfig grid = bench::DefaultGrid();
  std::printf("Table 17/18/19/20/21 reproduction: the six new datasets\n\n");

  core::Leaderboard auc_board, ap_board;
  std::vector<std::string> model_names, dataset_names;
  const std::vector<std::string> large = {"eBay-Large", "DGraphFin",
                                          "YouTubeReddit-Large",
                                          "Taobao-Large"};
  for (models::ModelKind kind : models::PaperModels()) {
    model_names.push_back(models::ModelKindName(kind));
  }
  struct EffCell {
    std::string runtime, ram, state;
  };
  std::vector<std::vector<EffCell>> efficiency;

  const std::vector<models::ModelKind> kinds = models::PaperModels();
  for (const datagen::DatasetSpec& spec :
       bench::SelectedDatasets(datagen::NewDatasets())) {
    dataset_names.push_back(spec.name);
    graph::TemporalGraph g = bench::LoadBenchmark(spec, grid);
    // Per-model jobs run concurrently on the runtime pool; each fills its
    // own slot and the leaderboard rows are pushed serially afterwards.
    std::vector<bench::AggregatedLp> aggs(kinds.size());
    bench::ForEachModelParallel(kinds, [&](models::ModelKind kind,
                                           int64_t slot) {
      aggs[static_cast<size_t>(slot)] =
          bench::RunAggregatedLp(spec, g, kind, grid);
      std::fprintf(stderr, "done %s / %s\n", spec.name.c_str(),
                   models::ModelKindName(kind));
    });
    efficiency.emplace_back();
    for (size_t i = 0; i < kinds.size(); ++i) {
      const bench::AggregatedLp& agg = aggs[i];
      bench::PushToLeaderboard(&auc_board, models::ModelKindName(kinds[i]),
                               spec.name, agg, "AUC");
      bench::PushToLeaderboard(&ap_board, models::ModelKindName(kinds[i]),
                               spec.name, agg, "AP");
      char buf[64];
      EffCell cell;
      std::snprintf(buf, sizeof(buf), "%.3f",
                    agg.efficiency.seconds_per_epoch);
      cell.runtime = buf;
      std::snprintf(buf, sizeof(buf), "%.2f", agg.efficiency.max_rss_gb);
      cell.ram = buf;
      std::snprintf(buf, sizeof(buf), "%.3f",
                    static_cast<double>(agg.efficiency.state_bytes +
                                        agg.efficiency.parameter_bytes) /
                        (1024.0 * 1024.0));
      cell.state = buf;
      efficiency.back().push_back(cell);
    }
  }

  for (int s = 0; s < 4; ++s) {
    const char* setting = core::SettingName(static_cast<core::Setting>(s));
    std::printf("=== Table 17 AUC, %s ===\n%s", setting,
                auc_board
                    .FormatTable(model_names, dataset_names,
                                 "link_prediction", setting, "AUC")
                    .c_str());
    std::printf("Average Rank (4 large-scale datasets):");
    for (const std::string& model : model_names) {
      std::printf("  %s=%.2f", model.c_str(),
                  auc_board.AverageRank(model, large, "link_prediction",
                                        setting, "AUC"));
    }
    std::printf("\n\n");
  }
  for (int s = 0; s < 4; ++s) {
    const char* setting = core::SettingName(static_cast<core::Setting>(s));
    std::printf("=== Table 18 AP, %s ===\n%s\n", setting,
                ap_board
                    .FormatTable(model_names, dataset_names,
                                 "link_prediction", setting, "AP")
                    .c_str());
  }

  std::printf("=== Table 19: node classification on the eBay datasets ===\n");
  for (const char* name : {"eBay-Small", "eBay-Large"}) {
    const datagen::DatasetSpec* spec = datagen::FindDataset(name);
    graph::TemporalGraph g = bench::LoadBenchmark(*spec, grid);
    std::printf("%-12s", name);
    for (models::ModelKind kind : models::PaperModels()) {
      core::NodeClassificationJob job;
      job.graph = &g;
      job.num_users = spec->config.num_users;
      job.kind = kind;
      job.model_config = bench::ModelConfigFor(kind, *spec, grid);
      job.train_config = bench::TrainConfigFor(kind, grid, 4000);
      job.pretrain_epochs = bench::IsWalkModel(kind) ? 1 : 3;
      bench::NcCell cell;
      cell.Add(core::RunNodeClassification(job));
      std::printf(
          "  %s=%s", models::ModelKindName(kind),
          cell.FormatMean(&core::NodeClassificationResult::test_auc).c_str());
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  std::printf("\n=== Tables 20/21: efficiency on the new datasets ===\n");
  std::printf("%-22s", "Dataset");
  for (const std::string& model : model_names) {
    std::printf("%24s", model.c_str());
  }
  std::printf("\n(each cell: s/epoch | RAM GB | state MB)\n");
  for (size_t d = 0; d < dataset_names.size(); ++d) {
    std::printf("%-22s", dataset_names[d].c_str());
    for (size_t m = 0; m < model_names.size(); ++m) {
      const EffCell& cell = efficiency[d][m];
      std::printf("  %8s|%5s|%7s", cell.runtime.c_str(), cell.ram.c_str(),
                  cell.state.c_str());
    }
    std::printf("\n");
  }
  return 0;
}
