// Reproduces Table 22 (Appendix G): dynamic node classification with
// multiple labels on the DGraphFin surrogate (4 classes: normal, fraud,
// and two background classes), reporting accuracy and the support-weighted
// precision / recall / F1 of the appendix's formulas, for all 7 models.

#include "bench/bench_common.h"

int main() {
  benchtemp::bench::BenchArtifact artifact("table22_multilabel_nc");
  using namespace benchtemp;
  const bench::GridConfig grid = bench::DefaultGrid();
  const datagen::DatasetSpec* spec = datagen::FindDataset("DGraphFin");
  graph::TemporalGraph g = bench::LoadBenchmark(*spec, grid);
  std::printf(
      "Table 22 reproduction: multi-label node classification on DGraphFin "
      "(%d classes)\n\n%-10s %12s %12s %12s %12s\n", g.NumLabelClasses(),
      "Model", "Accuracy", "Precision", "Recall", "F1");

  for (models::ModelKind kind : models::PaperModels()) {
    bench::NcCell cell;
    for (int run = 0; run < grid.runs; ++run) {
      core::NodeClassificationJob job;
      job.graph = &g;
      job.num_users = 0;
      job.kind = kind;
      job.model_config = bench::ModelConfigFor(kind, *spec, grid);
      job.train_config = bench::TrainConfigFor(kind, grid, 5000 + run);
      job.pretrain_epochs = bench::IsWalkModel(kind) ? 1 : 3;
      cell.Add(core::RunNodeClassification(job));
    }
    using R = core::NodeClassificationResult;
    std::printf("%-10s %s %s %s %s\n", models::ModelKindName(kind),
                cell.Format(&R::accuracy).c_str(),
                cell.Format(&R::precision_weighted).c_str(),
                cell.Format(&R::recall_weighted).c_str(),
                cell.Format(&R::f1_weighted).c_str());
    std::fflush(stdout);
  }
  std::printf(
      "\nExpected shape (paper): TGN best, TGAT second; CAWN/JODIE/DyRep "
      "weak on the multi-label task.\n");
  return 0;
}
