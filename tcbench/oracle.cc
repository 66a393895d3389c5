// Answer checks that do not use the TC-Tree: Prop. 5.2 on every answer,
// and a from-definition recomputation of sampled answers.
#include <algorithm>
#include <map>

#include "core/brute_force.h"
#include "net/theme_network.h"
#include "tcbench.h"
#include "util/string_util.h"

namespace tcbench {

using tcf::Edge;
using tcf::Itemset;
using tcf::ItemId;
using tcf::StrFormat;

namespace {

std::string Join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ',';
    out += n;
  }
  return out;
}

/// Every non-empty sub-pattern of `q` with at most `cap` items (0 = no
/// cap), in no particular order.
std::vector<Itemset> SubPatterns(const Itemset& q, size_t cap) {
  const size_t n = q.size();
  std::vector<Itemset> out;
  for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
    if (cap != 0 && static_cast<size_t>(__builtin_popcountll(mask)) > cap) {
      continue;
    }
    std::vector<ItemId> items;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (uint64_t{1} << i)) items.push_back(q[i]);
    }
    out.push_back(Itemset(std::move(items)));
  }
  return out;
}

std::map<Itemset, tcf::PatternTruss> OracleTrusses(const DatabaseNetwork& net,
                                                   const ServeQuery& query,
                                                   size_t depth_cap) {
  std::map<Itemset, tcf::PatternTruss> expected;
  for (const Itemset& p : SubPatterns(query.items, depth_cap)) {
    const tcf::ThemeNetwork tn = tcf::InduceThemeNetwork(net, p);
    if (tn.empty()) continue;
    tcf::PatternTruss truss =
        tcf::BruteForceMaximalPatternTruss(tn, query.alpha);
    if (!truss.empty()) expected.emplace(p, std::move(truss));
  }
  return expected;
}

}  // namespace

std::string CheckAntiMonotone(const std::vector<WireTruss>& answer) {
  std::vector<std::vector<std::string>> names(answer.size());
  for (size_t i = 0; i < answer.size(); ++i) {
    names[i] = answer[i].pattern;
    std::sort(names[i].begin(), names[i].end());
  }
  for (size_t i = 0; i < answer.size(); ++i) {
    for (size_t j = 0; j < answer.size(); ++j) {
      if (names[i].size() >= names[j].size() ||
          !std::includes(names[j].begin(), names[j].end(), names[i].begin(),
                         names[i].end())) {
        continue;
      }
      // names[i] ⊂ names[j]: C*_{p_j} must lie inside C*_{p_i}.
      if (!std::includes(answer[i].edges.begin(), answer[i].edges.end(),
                         answer[j].edges.begin(), answer[j].edges.end())) {
        return StrFormat("Prop. 5.2 violated: edges of {%s} not within {%s}",
                         Join(names[j]).c_str(), Join(names[i]).c_str());
      }
    }
  }
  return "";
}

std::vector<WireTruss> OracleAnswer(const DatabaseNetwork& net,
                                    const ServeQuery& query,
                                    size_t depth_cap) {
  std::vector<WireTruss> out;
  for (auto& [pattern, truss] : OracleTrusses(net, query, depth_cap)) {
    WireTruss w;
    for (ItemId item : pattern) {
      w.pattern.push_back(net.dictionary().Name(item));
    }
    w.vertices = truss.vertices;
    w.edges = truss.edges;
    out.push_back(std::move(w));
  }
  return out;
}

std::string CheckAgainstOracle(const DatabaseNetwork& net,
                               const ServeQuery& query, size_t depth_cap,
                               const std::vector<WireTruss>& answer) {
  const std::map<Itemset, tcf::PatternTruss> expected =
      OracleTrusses(net, query, depth_cap);
  std::map<Itemset, const WireTruss*> got;
  for (const WireTruss& w : answer) {
    std::vector<ItemId> ids;
    for (const std::string& name : w.pattern) {
      auto id = net.dictionary().Find(name);
      if (!id.ok()) return "answer names unknown item " + name;
      ids.push_back(*id);
    }
    Itemset p(std::move(ids));
    if (!got.emplace(p, &w).second) {
      return "pattern {" + Join(w.pattern) + "} answered twice";
    }
  }
  for (const auto& [p, w] : got) {
    if (expected.count(p) == 0) {
      return "spurious pattern {" + Join(w->pattern) +
             "}: its maximal pattern truss is empty";
    }
  }
  for (const auto& [p, truss] : expected) {
    auto it = got.find(p);
    if (it == got.end()) {
      return StrFormat("pattern %s missing (%zu edges expected)",
                       p.ToString().c_str(), truss.edges.size());
    }
    const WireTruss& w = *it->second;
    std::vector<Edge> edges = w.edges;
    std::sort(edges.begin(), edges.end());
    if (edges != truss.edges) {
      return StrFormat("pattern %s: %zu edges answered, %zu expected",
                       p.ToString().c_str(), edges.size(),
                       truss.edges.size());
    }
    if (w.vertices != truss.vertices) {
      return StrFormat("pattern %s: vertex set differs",
                       p.ToString().c_str());
    }
  }
  return "";
}

}  // namespace tcbench
