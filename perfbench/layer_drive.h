// Layer drive: times one public hot function of each layer the timed
// workloads cannot split out from outside — report build and client report
// processing per strategy (core, sig), event dispatch (sim) and the
// arrival kernel's exponential draw (util) — on the workload's own
// parameters.

#ifndef MOBICACHE_PERFBENCH_LAYER_DRIVE_H_
#define MOBICACHE_PERFBENCH_LAYER_DRIVE_H_

#include <cstdint>

#include "util/status.h"
#include "workloads.h"

namespace perfbench {

struct LayerDriveResult {
  /// Indexed TS, AT, SIG: ns per ServerStrategy::BuildReportInto and per
  /// ClientCacheManager::OnReport.
  double build_report_ns[3] = {0.0, 0.0, 0.0};
  double client_report_ns[3] = {0.0, 0.0, 0.0};
  /// ns per ClientSignatureView::DiagnoseAndAdopt.
  double sig_diagnose_ns = 0.0;
  /// ns per event for Simulator::ScheduleAt plus its dispatch by RunUntil.
  double dispatch_ns = 0.0;
  /// ns per Rng::Exponential draw.
  double exp_draw_ns = 0.0;
};

/// Runs the drive for `w` at `seed`. Each part repeats until it has run for
/// about `part_seconds` (and at least a few calls).
mobicache::Status RunLayerDrive(const Workload& w, uint64_t seed,
                                double part_seconds, Tracer* tracer,
                                LayerDriveResult* out);

}  // namespace perfbench

#endif  // MOBICACHE_PERFBENCH_LAYER_DRIVE_H_
