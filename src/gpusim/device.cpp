#include "gpusim/device.h"

#include <omp.h>

#include <mutex>

#include "util/check.h"

namespace taser::gpusim {

LaunchResult Device::launch(int grid_dim, int block_dim,
                            const std::function<void(BlockCtx&)>& kernel) {
  TASER_CHECK(grid_dim >= 0 && block_dim > 0);
  const std::uint64_t launch_seed = seed_ + 0x1000003ULL * (++launch_counter_);

  KernelStats merged;
  // A real mutex, not `omp critical`, for the once-per-thread stats merge:
  // semantically identical, but ThreadSanitizer cannot see libgomp's
  // critical-section locks and would report the merge as a race. The
  // trailing acquire on the main thread publishes the workers' merges to
  // the read below the parallel region under the same reasoning.
  static std::mutex merge_mu;
#pragma omp parallel if (grid_dim > 4)
  {
    KernelStats local;
#pragma omp for schedule(dynamic, 16) nowait
    for (int b = 0; b < grid_dim; ++b) {
      BlockCtx ctx(b, block_dim, launch_seed);
      kernel(ctx);
      local.merge(ctx.stats());
    }
    {
      std::lock_guard<std::mutex> lock(merge_mu);
      merged.merge(local);
    }
  }
  { std::lock_guard<std::mutex> lock(merge_mu); }

  LaunchResult result{merged, model_.kernel_time(merged)};
  elapsed_ += result.time;
  return result;
}

SimDuration Device::account_h2d(std::uint64_t bytes) {
  const SimDuration d = model_.h2d_time(bytes);
  elapsed_ += d;
  return d;
}

SimDuration Device::account_zero_copy(std::uint64_t bytes) {
  const SimDuration d = model_.zero_copy_time(bytes);
  elapsed_ += d;
  return d;
}

SimDuration Device::account_vram_gather(std::uint64_t bytes) {
  const SimDuration d = model_.vram_gather_time(bytes);
  elapsed_ += d;
  return d;
}

}  // namespace taser::gpusim
