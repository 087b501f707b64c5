// Pluggable executor for a campaign's parallel probe waves.
//
// Campaign::run splits each wave into slices — contiguous, address-ordered
// sub-ranges of the master work list — and by default executes them on a
// thread pool. A ShardRunner replaces that execution step (a benchmark's
// tracing runner times each slice this way). The contract is the same the
// pool satisfies: return one WaveSliceResult / RequeueSliceResult per slice,
// covering the input items exactly once, in master (address) order across
// the returned vector. The campaign's merge is agnostic to where the slices
// ran, so any conforming runner yields a byte-identical report.
#pragma once

#include <span>
#include <vector>

#include "scan/campaign.hpp"

namespace spfail::scan {

class ShardRunner {
 public:
  virtual ~ShardRunner() = default;

  // Execute the two-wave probe pass over `items` (the full master list, in
  // ascending address order). Returned slices concatenate to the item list.
  virtual std::vector<WaveSliceResult> run_wave(
      Campaign& campaign, std::span<const WaveItem> items,
      const WaveContext& ctx) = 0;

  // Execute the inconclusive re-queue pass; `items` carry the current
  // outcomes, returned slices carry the mutated copies in item order.
  virtual std::vector<RequeueSliceResult> run_requeue(
      Campaign& campaign, std::span<const RequeueItem> items,
      const WaveContext& ctx) = 0;
};

}  // namespace spfail::scan
