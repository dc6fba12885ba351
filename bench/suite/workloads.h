// The suite's four workloads. Each fills a Result with the metrics of the
// requested mode (end-to-end, or per-layer when opt.trace) plus its
// correctness checks; main() turns the Result into the printed report.
#pragma once

#include <string>

#include "harness.h"

namespace suite {

bool is_train_workload(const std::string& name);
bool is_serve_workload(const std::string& name);

/// train-taser / train-mixer: Trainer epochs + validation MRR, and in
/// trace mode a serial per-layer replay of the same epoch's batches.
Result run_train(const Options& opt);
/// serve-read / serve-ingest: open-loop ServingEngine traffic, and in
/// trace mode direct InferenceSession / GraphEpochManager replays.
Result run_serve(const Options& opt);

/// One-off scaling table (not gated): builder workers P on the training
/// workloads, serving workers N on serve-read, shards S on serve-ingest,
/// each in {1, 2, 4}, measured with no modeled sleeps.
void sweep_train(std::uint64_t seed);
void sweep_serve(std::uint64_t seed);

}  // namespace suite
