#pragma once

#include "models/batch_inputs.h"
#include "nn/module.h"

namespace taser::models {

/// Hyper-parameters shared by the backbones. Defaults follow the paper's
/// configuration (§IV-A) — benches shrink them and record the reduction.
struct ModelConfig {
  std::int64_t node_feat_dim = 0;  ///< dv (0 = featureless nodes)
  std::int64_t edge_feat_dim = 0;  ///< de (0 = featureless edges)
  std::int64_t hidden_dim = 100;
  std::int64_t time_dim = 100;
  std::int64_t num_neighbors = 10;  ///< n, supporting neighbors per target
  /// Reserved: the paper's backbones use dropout 0.1, but the reduced
  /// configurations train too few steps for it to matter, so the layers
  /// currently ignore it (tensor::dropout is implemented and tested).
  float dropout = 0.1f;
};

/// Common interface of the two backbone TGNNs. `compute_embeddings`
/// appends one AggregationRecord per temporal aggregation it performs;
/// records stay valid until the next call or clear_records(). A record
/// holds the forward's autograd graph, so the trainer clears them when a
/// training step ends.
class TgnnModel : public nn::Module {
 public:
  explicit TgnnModel(ModelConfig config) : config_(config) {}

  /// Embeds the batch roots: returns [num_roots, hidden_dim].
  virtual Tensor compute_embeddings(const BatchInputs& inputs) = 0;

  /// Number of sampled hops the model consumes (TGAT 2, GraphMixer 1).
  virtual int num_hops() const = 0;

  virtual std::string name() const = 0;

  const ModelConfig& config() const { return config_; }
  const std::vector<AggregationRecord>& records() const { return records_; }
  void clear_records() { records_.clear(); }

 protected:
  ModelConfig config_;
  std::vector<AggregationRecord> records_;
};

}  // namespace taser::models
