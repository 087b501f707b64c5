// Append-only string interning (DESIGN.md §14).
//
// The scan apparatus repeats the same strings millions of times: qnames under
// a handful of probe suites, domain labels, provider names, report columns.
// Storing each occurrence as its own std::string is what caps campaign size —
// memory, not CPU, is the scaling wall (ROADMAP item 3). An Interner stores
// every distinct string exactly once in a chunked arena and hands out dense
// `u32` Symbol ids in first-insertion order, so hot-path equality is a u32
// compare and the text lives in O(distinct) bytes instead of O(occurrences).
//
// Determinism contract: Symbol ids are assigned by insertion order, so a
// serial walk over deterministic inputs yields identical tables on every run.
// An Interner is single-threaded; sharded work keeps one per shard (a lane
// query log's qname table, say) and never folds them together, so no table
// depends on the thread count.
//
// The arena is chunked: chunks are never reallocated, so string_views handed
// out by view() stay valid for the interner's lifetime (and survive further
// interning). The hash table is open addressing over entry indices; only the
// table itself rehashes, never the bytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot/codec.hpp"

namespace spfail::util {

// Dense interned-string id; assigned in first-insertion order from 0.
using Symbol = std::uint32_t;
inline constexpr Symbol kInvalidSymbol = 0xFFFFFFFFu;

class Interner {
 public:
  Interner() = default;

  // Returns the Symbol for `text`, inserting it on first sight. Views into
  // the arena remain valid across calls (chunks never move).
  Symbol intern(std::string_view text);

  // The Symbol for `text` if already interned, else kInvalidSymbol. Does not
  // count toward the hit/miss statistics.
  Symbol find(std::string_view text) const;

  // The text of an interned Symbol. `id` must be < size().
  std::string_view view(Symbol id) const {
    const Entry& e = entries_[id];
    return std::string_view(chunks_[e.chunk].data() + e.offset, e.length);
  }

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  // Allocation-shape statistics for the memory bench: how often intern() was
  // answered from the table vs. had to append, and the distinct byte volume.
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t distinct_bytes() const noexcept { return distinct_bytes_; }

  // Wire form (DESIGN.md §14): entry count, then each string u32
  // length-prefixed in Symbol order, then an fnv1a-64 checksum over exactly
  // those bytes. decode() rejects a checksum mismatch.
  void encode(snapshot::Writer& w) const;
  static Interner decode(snapshot::Reader& r);

  // Table equality: same strings in the same Symbol order.
  friend bool operator==(const Interner& a, const Interner& b);

 private:
  struct Entry {
    std::uint32_t chunk = 0;
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
  };

  // Arena chunk size; strings longer than this get a dedicated chunk.
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  std::string_view append(std::string_view text);
  void rehash(std::size_t buckets);
  Symbol lookup(std::string_view text, std::uint64_t hash) const;

  std::vector<std::string> chunks_;
  std::vector<Entry> entries_;
  // Open-addressing table of entry indices (kInvalidSymbol = empty slot).
  std::vector<Symbol> table_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t distinct_bytes_ = 0;
};

}  // namespace spfail::util
