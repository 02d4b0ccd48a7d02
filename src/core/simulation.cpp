#include "src/core/simulation.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <vector>

namespace bips::core {

void write_history_csv(std::ostream& os, const BipsServer& server,
                       const mobility::Building& building) {
  os << "time_s,user,device,room,event\n";
  // Same-instant transitions of *different* devices have no causal order:
  // independent piconets can retire discoveries on the same slot boundary,
  // and their kernel interleaving there is a scheduling artifact that the
  // virtual-slot fast-forward path legitimately perturbs (a woken master's
  // delivery chain carries later sequence numbers than a drumming one).
  // Canonicalise the report on (time, device); the stable sort preserves
  // the causal leave->enter order of a same-device handover.
  // The merged shard history comes back in global seq order -- the exact
  // order a single database would have recorded -- so the CSV is identical
  // at any shard count.
  std::vector<LocationDatabase::Transition> rows =
      server.locations().history();
  std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.at != b.at ? a.at < b.at : a.bd_addr < b.bd_addr;
  });
  for (const auto& t : rows) {
    const auto userid = server.locations().userid_of(t.bd_addr);
    char dev[16];
    std::snprintf(dev, sizeof dev, "%012llx",
                  static_cast<unsigned long long>(t.bd_addr));
    os << t.at.to_seconds() << ',' << (userid ? *userid : "") << ',' << dev
       << ',' << building.room(t.station).name << ','
       << (t.present ? "enter" : "leave") << '\n';
  }
}

}  // namespace bips::core
