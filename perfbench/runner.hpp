// Bench-side slice runner for traced runs.
//
// Implements longitudinal::DistHooks (a scan::ShardRunner plus the study's
// observation batches and host-residue capture) on an in-process thread
// pool. It cuts every batch exactly as the pool path does — the same
// ThreadPool::slice_count / parallel_for_slices split — and calls the same
// public slice functions (Campaign::run_wave_slice / run_requeue_slice,
// Study::run_observe_slice), one span per slice. Slices are returned
// unmerged, so the campaign's and the study's own merges (query-log splice,
// clock fold, degradation merge) still run and are still measured.
//
// With a runner attached the campaign dedupes serially and the study owns
// no pool: that difference is part of the traced run's overhead.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "longitudinal/study.hpp"
#include "population/fleet.hpp"
#include "snapshot/fields.hpp"
#include "snapshot/snapshot.hpp"
#include "spans.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

class TracingRunner : public spfail::longitudinal::DistHooks {
 public:
  TracingRunner(spfail::population::Fleet& fleet, int threads,
                spfail::util::SchedulerOptions sched, SpanRecorder& spans)
      : fleet_(fleet), pool_(threads), sched_(sched), spans_(spans) {}

  std::vector<spfail::scan::WaveSliceResult> run_wave(
      spfail::scan::Campaign& campaign,
      std::span<const spfail::scan::WaveItem> items,
      const spfail::scan::WaveContext& ctx) override {
    ScopedSpan batch(&spans_, "scan.wave");
    std::vector<spfail::scan::WaveSliceResult> out(
        pool_.slice_count(items.size(), sched_));
    run_slices(items.size(), "scan.wave_slice", batch,
               [&](std::size_t slice, std::size_t begin, std::size_t end) {
                 out[slice] = campaign.run_wave_slice(
                     items.subspan(begin, end - begin), begin, ctx);
               });
    return out;
  }

  std::vector<spfail::scan::RequeueSliceResult> run_requeue(
      spfail::scan::Campaign& campaign,
      std::span<const spfail::scan::RequeueItem> items,
      const spfail::scan::WaveContext& ctx) override {
    ScopedSpan batch(&spans_, "scan.requeue");
    std::vector<spfail::scan::RequeueSliceResult> out(
        pool_.slice_count(items.size(), sched_));
    run_slices(items.size(), "scan.requeue_slice", batch,
               [&](std::size_t slice, std::size_t begin, std::size_t end) {
                 out[slice] = campaign.run_requeue_slice(
                     items.subspan(begin, end - begin), ctx);
               });
    return out;
  }

  std::vector<spfail::longitudinal::Study::ObserveSliceResult> run_observe(
      spfail::longitudinal::Study& study,
      std::span<const spfail::longitudinal::Study::ObserveJob> jobs,
      const spfail::longitudinal::Study::ObserveContext& ctx) override {
    ScopedSpan batch(&spans_, "longitudinal.observe");
    std::vector<spfail::longitudinal::Study::ObserveSliceResult> out(
        pool_.slice_count(jobs.size(), sched_));
    run_slices(jobs.size(), "longitudinal.observe_slice", batch,
               [&](std::size_t slice, std::size_t begin, std::size_t end) {
                 out[slice] = study.run_observe_slice(
                     jobs.subspan(begin, end - begin), ctx);
               });
    return out;
  }

  // The local path's residue capture: live hosts only, in input order.
  std::vector<std::optional<spfail::snapshot::StudySnapshot::HostState>>
  capture_hosts(const std::vector<spfail::util::IpAddress>& addresses) override {
    std::vector<std::optional<spfail::snapshot::StudySnapshot::HostState>> out;
    out.reserve(addresses.size());
    for (const auto& address : addresses) {
      const spfail::mta::MailHost* host = fleet_.find_host(address);
      if (host == nullptr) {
        out.emplace_back();
      } else {
        out.emplace_back(spfail::snapshot::capture_host_state(address, *host));
      }
    }
    return out;
  }

 private:
  template <typename Fn>
  void run_slices(std::size_t n, const char* slice_name,
                  const ScopedSpan& batch, Fn&& fn) {
    const std::int64_t parent = batch.id();
    const std::int64_t request = t_current_request;
    pool_.parallel_for_slices(
        n, sched_, [&](std::size_t slice, std::size_t begin, std::size_t end) {
          ScopedSpan span(&spans_, slice_name, request, parent);
          fn(slice, begin, end);
        });
  }

  spfail::population::Fleet& fleet_;
  spfail::util::ThreadPool pool_;
  spfail::util::SchedulerOptions sched_;
  SpanRecorder& spans_;
};

}  // namespace perfbench
