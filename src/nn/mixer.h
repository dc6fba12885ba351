#pragma once

#include "nn/layer_norm.h"
#include "nn/mlp.h"

namespace taser::nn {

/// One MLP-Mixer block (Tolstikhin et al., 2021) on [B, tokens, channels]:
/// token-mixing MLP applied across the token dimension (via transpose),
/// then channel-mixing MLP, each with pre-LayerNorm and residual.
///
/// Used both as the GraphMixer temporal aggregator (tokens = sampled
/// neighbors) and as the TASER neighbor-decoder trunk (Eq. 16).
class MixerBlock : public Module {
 public:
  /// `tokens` is the fixed token count (neighbor budget), `channels` the
  /// embedding width. Hidden sizes follow GraphMixer: 0.5x for the token
  /// MLP, 4x for the channel MLP.
  MixerBlock(std::int64_t tokens, std::int64_t channels, util::Rng& rng,
             std::int64_t token_hidden = 0, std::int64_t channel_hidden = 0)
      : tokens_(tokens),
        channels_(channels),
        ln_token_(channels),
        ln_channel_(channels),
        token_mlp_(tokens, token_hidden > 0 ? token_hidden : std::max<std::int64_t>(tokens / 2, 2),
                   tokens, rng),
        channel_mlp_(channels, channel_hidden > 0 ? channel_hidden : channels * 4, channels,
                     rng) {
    register_module("ln_token", ln_token_);
    register_module("ln_channel", ln_channel_);
    register_module("token_mlp", token_mlp_);
    register_module("channel_mlp", channel_mlp_);
  }

  /// x: [B, tokens, channels] -> same shape, as ONE autograd node:
  ///   x1  = x + permute_021(token_mlp(permute_021(ln_token(x))))
  ///   out = x1 + channel_mlp(ln_channel(x1))
  /// The node saves the block input x (by reference: it is a parent),
  /// the two layer norms' row statistics (mean, rstd), the token-MLP
  /// pre-activation u1 = fc1 output before GELU, the residual midpoint
  /// x1 and the channel-MLP pre-activation u2. Its backward recomputes
  /// both layer-norm outputs (from x and x1 with their statistics) and
  /// both GELU outputs (from u1 and u2) through the kernels the forward
  /// ran, and frees that scratch when it returns. Under NoGradGuard (or
  /// when nothing requires grad) it saves nothing.
  ///
  /// No buffer is zero-filled: the saved set and the scratch are written
  /// in full before they are read, and each GEMM into a fresh buffer
  /// overwrites it (Epilogue::beta_zero). Every pass runs on the OpenMP
  /// team: the GEMMs and layer norms, the permutes and residual adds in
  /// fixed chunks, and token fc1's per-block GEMMs, whose dW1 shares are
  /// computed into per-block partials and folded into dW1 in block order.
  ///
  /// Output, input grad and all 12 parameter grads are bit-identical to
  /// the composition of layer_norm_lastdim, permute_021, linear_gelu,
  /// linear and add it replaces (same GEMM calls, operand views and
  /// reduction orders), and the FLOP ledger counts what that composition
  /// counted; tests/test_nn.cpp keeps the composition as the reference.
  Tensor forward(const Tensor& x) const;

  std::int64_t tokens() const { return tokens_; }
  std::int64_t channels() const { return channels_; }

 private:
  std::int64_t tokens_, channels_;
  LayerNorm ln_token_, ln_channel_;
  Mlp token_mlp_, channel_mlp_;
};

}  // namespace taser::nn
