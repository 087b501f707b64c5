#include "dns/query_log.hpp"

namespace spfail::dns {

std::vector<QueryLogEntry> QueryLog::entries() const {
  std::vector<QueryLogEntry> out;
  out.reserve(entries_.size());
  for (const Compact& e : entries_) out.push_back(materialise(e));
  return out;
}

}  // namespace spfail::dns
