#include "analyze/sweep.hpp"

#include <algorithm>
#include <map>

#include "topo/routing.hpp"

namespace gfc::analyze {

namespace {

/// All size-`size` combinations of candidate positions, lexicographic.
void append_combos(std::size_t n, std::size_t size,
                   std::vector<std::vector<std::size_t>>* out) {
  std::vector<std::size_t> combo(size);
  for (std::size_t i = 0; i < size; ++i) combo[i] = i;
  if (size > n) return;
  while (true) {
    out->push_back(combo);
    // Advance: rightmost position that can still move right.
    std::size_t i = size;
    while (i > 0 && combo[i - 1] == n - size + (i - 1)) --i;
    if (i == 0) return;
    ++combo[i - 1];
    for (std::size_t j = i; j < size; ++j) combo[j] = combo[j - 1] + 1;
  }
}

bool risky(Verdict v) { return v != Verdict::kDeadlockFree; }

}  // namespace

Report sweep_failures(const Input& in, int max_failures) {
  Report base = analyze(in);

  FailureSweep sweep;
  sweep.max_failures = max_failures;
  sweep.baseline = base.verdict();

  // Failure candidates: switch-to-switch links that are currently up
  // (host access links only disconnect a host — no CBD can appear or
  // vanish that a routability lint wouldn't already flag).
  const topo::Topology& orig = *in.topo;
  std::vector<topo::LinkIndex> candidates;
  for (const topo::LinkIndex l : orig.switch_links())
    if (orig.link(l).up) candidates.push_back(l);

  std::vector<std::vector<std::size_t>> combos;
  for (int size = 1; size <= max_failures; ++size)
    append_combos(candidates.size(), static_cast<std::size_t>(size), &combos);

  topo::Topology scratch = orig;
  Input combo_in = in;
  combo_in.topo = &scratch;

  // Link set -> result index, for the minimal-culprit subset checks.
  std::map<std::vector<topo::LinkIndex>, std::size_t> by_links;
  for (const auto& combo : combos) {
    FailureCombo res;
    for (const std::size_t c : combo) {
      const topo::LinkIndex l = candidates[c];
      scratch.fail_link(l);
      res.links.push_back(l);
      res.link_names.push_back(orig.node(orig.link(l).a).name + "-" +
                               orig.node(orig.link(l).b).name);
    }
    const topo::RoutingTable routing = topo::compute_shortest_paths(scratch);
    combo_in.routing = &routing;
    const Report rep = analyze(combo_in);
    res.verdict = rep.verdict();
    res.cycle_count = rep.cycles.size();
    res.truncated = rep.truncated;
    res.disconnects =
        std::any_of(rep.lints.begin(), rep.lints.end(),
                    [](const LintFinding& f) { return f.kind == "unroutable"; });
    res.flips = sweep.baseline == Verdict::kDeadlockFree && risky(res.verdict);
    if (res.flips) ++sweep.flipped;
    for (const std::size_t c : combo)
      scratch.restore_link(candidates[c]);
    by_links[res.links] = sweep.results.size();
    sweep.results.push_back(std::move(res));
  }
  sweep.combos = sweep.results.size();

  // Minimal culprits: flipping combos none of whose proper non-empty
  // subsets flip. Every such subset has size < k, so it was enumerated.
  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    const FailureCombo& res = sweep.results[i];
    if (!res.flips) continue;
    const std::size_t n = res.links.size();
    bool minimal = true;
    for (std::uint32_t mask = 1; minimal && mask + 1 < (1u << n); ++mask) {
      std::vector<topo::LinkIndex> subset;
      for (std::size_t b = 0; b < n; ++b)
        if (mask & (1u << b)) subset.push_back(res.links[b]);
      const auto it = by_links.find(subset);
      if (it != by_links.end() && sweep.results[it->second].flips)
        minimal = false;
    }
    if (minimal) sweep.culprits.push_back(i);
  }

  base.failure_sweep = std::move(sweep);
  return base;
}

}  // namespace gfc::analyze
