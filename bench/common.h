#pragma once

// Shared helpers for the per-table / per-figure bench binaries.
//
// Every bench prints (a) the paper-shaped table with *measured wall* and
// *modeled device* time clearly separated where relevant, and (b) a
// final "paper-shape:" line stating whether the qualitative claim the
// paper makes for that table/figure held in this run. Reduced
// configurations (edge counts, dims, epochs) are all centralised here;
// each declaration below states its reduction against the paper.

#include <string>
#include <vector>

#include "core/trainer.h"
#include "graph/synthetic.h"
#include "util/table.h"

namespace taser::bench {

/// Global bench scale from $TASER_BENCH_SCALE (default 1.0). Values > 1
/// grow datasets/epochs towards the paper's configuration; < 1 shrinks
/// for smoke runs.
double bench_scale();

/// Reduced-configuration presets of the five paper datasets for
/// *training* benches (edge counts ~2-4k at scale 1).
std::vector<graph::SyntheticConfig> training_presets();

/// Larger edge-count presets for *sampling-only* benches (Fig. 3a).
std::vector<graph::SyntheticConfig> sampling_presets();

/// Training presets with wider (64-dim) features so feature-slicing
/// volume is meaningful — used by the runtime benches (Fig. 1, Table III).
std::vector<graph::SyntheticConfig> runtime_presets();

/// The reduced trainer configuration shared by all accuracy benches:
/// batch 128, hidden/time dims 32/16, n=5, m=10, lr 5e-3 (paper: batch
/// 600, 100/100, n=10, m=25, lr 1e-4).
core::TrainerConfig reduced_trainer_config(core::BackboneKind backbone);

/// Trains `epochs` epochs and returns the final test MRR.
double train_and_eval(const graph::Dataset& data, core::TrainerConfig cfg, int epochs);

/// Prints the standard "paper-shape" verdict line, and records the
/// verdict into the process-wide JSON report (write_json_report).
void print_shape(const std::string& claim, bool held);

// ---------------------------------------------------------------------------
// Machine-readable bench reports (PR 10). Benches record named scalars
// and gate verdicts as they run; `--json <path>` on the command line
// flushes them — plus a full telemetry snapshot — to a schema-stable
// document:
//   {"schema_version":1, "bench":"<name>",
//    "metrics":{name:value,…}, "gates":{claim:bool,…},
//    "telemetry":{…obs::json_snapshot()…}}
// The CI smoke jobs upload these as BENCH_*.json artifacts.
// ---------------------------------------------------------------------------

/// Records one named scalar into the report (last write per name wins).
void report_metric(const std::string& name, double value);

/// Writes the report to the `--json <path>` argument if present (any
/// argv position; no-op and success when absent). The document is
/// round-trip validated (obs::json_valid) before the write. Returns 0 on
/// success, 1 on a validation or I/O failure — benches OR it into their
/// exit code so a broken report fails the smoke gate.
int write_json_report(int argc, char** argv, const std::string& bench_name);

}  // namespace taser::bench
