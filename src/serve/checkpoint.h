#pragma once

#include <string>

#include "models/edge_predictor.h"
#include "models/tgnn.h"
#include "nn/serialize.h"

namespace taser::serve {

/// One checkpoint for one servable unit: the backbone TGNN plus the
/// link-prediction head it was trained with. Saving them as a single
/// bundle (parameter names prefixed "model." / "predictor.") means a
/// serving process cannot accidentally pair a backbone with a head from a
/// different run — nn::serialize's strict name/shape matching rejects the
/// mismatch at load time.
class ServableBundle : public nn::Module {
 public:
  ServableBundle(models::TgnnModel& model, models::EdgePredictor& predictor) {
    register_module("model", model);
    register_module("predictor", predictor);
  }
};

/// Writes the train→serve hand-off checkpoint (versioned nn::serialize
/// container).
inline void save_servable(models::TgnnModel& model, models::EdgePredictor& predictor,
                          const std::string& path) {
  ServableBundle bundle(model, predictor);
  nn::save_parameters(bundle, path);
}

/// Restores a bundle written by save_servable into an identically
/// configured model + predictor pair. Throws on any name/shape/format
/// mismatch — all-or-nothing: a throw leaves model and predictor
/// bit-identical to their pre-call state (nn::load_parameters stages the
/// whole file before installing).
inline void load_servable(models::TgnnModel& model, models::EdgePredictor& predictor,
                          const std::string& path) {
  ServableBundle bundle(model, predictor);
  nn::load_parameters(bundle, path);
}

/// Staged variant for multi-replica installs (the ServingEngine): parse +
/// validate the file once (nn::read_parameters), then install the staged
/// copy into each worker replica — file faults can no longer strike
/// mid-fleet.
inline void install_servable(models::TgnnModel& model,
                             models::EdgePredictor& predictor,
                             const nn::ParameterBundle& staged) {
  ServableBundle bundle(model, predictor);
  nn::install_parameters(bundle, staged);
}

}  // namespace taser::serve
