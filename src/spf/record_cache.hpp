// Fleet-wide shared memo of parsed SPF records (DESIGN.md §16).
//
// Every Evaluator used to keep a private parse memo, so a policy text shared
// by thousands of simulated hosts ("v=spf1 -all", the big providers'
// include chains) was re-parsed and re-stored once per host. The shared cache
// parses each distinct text exactly once per fleet and hands every evaluator
// on every worker thread the same immutable Entry — a ConcurrentTable keyed
// by fnv1a of the record text. Texts are wider than 64-bit keys, so a hit
// verifies the full text and a 64-bit collision re-probes under a salted key
// (the wide-key rule util::ConcurrentTable states).
//
// Determinism: parsing is a pure function of the text, and entries are
// immutable after publication, so which thread inserts first is invisible to
// every output. The hit/miss counters ARE schedule-dependent (racing inserts
// on the same text both count a miss) — they feed benches only, never
// reports. A full cache degrades, never breaks: lookup() returns nullptr and
// the evaluator falls back to its private memo.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "spf/record.hpp"
#include "util/concurrent_table.hpp"

namespace spfail::spf {

class SharedRecordCache {
 public:
  static constexpr std::size_t kDefaultExpected = 1 << 12;

  explicit SharedRecordCache(std::size_t expected = kDefaultExpected)
      : table_(expected) {}

  SharedRecordCache(const SharedRecordCache&) = delete;
  SharedRecordCache& operator=(const SharedRecordCache&) = delete;

  ~SharedRecordCache();

  // One parsed record, immutable once published. `ok == false` memoises a
  // syntax error (a PermError record stays a PermError record).
  struct Entry {
    std::string text;
    bool ok = false;
    Record record;
  };

  // The memoised parse of `text`, parsing and inserting on first sight.
  // Thread-safe; concurrent callers with the same text converge on one
  // Entry. Returns nullptr when the cache cannot hold the text (table full
  // or salt chain exhausted) — callers fall back to their private memo.
  const Entry* lookup(const std::string& text);

  // Bench-only statistics (schedule-dependent; see header comment).
  std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  std::size_t size() const noexcept { return table_.size(); }

 private:
  static constexpr std::uint64_t kSaltStep = 0x9E3779B97F4A7C15ULL;
  static constexpr int kMaxSalt = 4;

  struct Slot {
    // Written in the table's pre-publication init window; immutable after.
    const Entry* entry = nullptr;
  };

  util::ConcurrentTable<Slot> table_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace spfail::spf
