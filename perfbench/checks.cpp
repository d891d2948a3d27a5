#include "checks.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace perfbench {

namespace {

/// Accumulates one named check: ok until the first failure, whose
/// description is kept.
class Check {
 public:
  explicit Check(std::string name) { r_.name = std::move(name); }
  void require(bool cond, const std::string& what) {
    if (cond || !r_.ok) return;
    r_.ok = false;
    r_.detail = what;
  }
  CheckResult done() { return std::move(r_); }

 private:
  CheckResult r_;
};

std::string trial_label(const TrialOutcome& t, std::size_t i) {
  static const char* kinds[] = {"stress", "closed-loop", "flap"};
  return "trial " + std::to_string(i) + " (" +
         kinds[static_cast<int>(t.kind)] + ", " + t.mechanism + ")";
}

bool is_gfc(const std::string& mech) { return mech.rfind("GFC", 0) == 0; }

std::uint64_t binomial(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  std::uint64_t r = 1;
  for (std::uint64_t i = 1; i <= k; ++i) r = r * (n - k + i) / i;
  return r;
}

constexpr int kDeadlockFree = 0;
constexpr int kAtRisk = 2;

template <typename T, typename Pred>
T& find_or_throw(std::vector<T>& v, Pred pred, const char* what) {
  const auto it = std::find_if(v.begin(), v.end(), pred);
  if (it == v.end())
    throw std::runtime_error(std::string("no record to corrupt: ") + what);
  return *it;
}

}  // namespace

bool all_ok(const Checks& checks) {
  return std::all_of(checks.begin(), checks.end(),
                     [](const CheckResult& c) { return c.ok; });
}

Checks check_timeline(const TimelineData& d) {
  Check no_deadlock("no_deadlock");
  Check lossless("zero_lossless_violations");
  Check route("zero_route_drops");
  Check gbps("gbps_in_range");
  Check flows("flows_bounded");
  Check pristine("pristine_cbd_free");
  Check same("same_inputs_same_events");
  pristine.require(!d.pristine_prone,
                   "the pristine fat-tree screens as CBD-prone");
  for (std::size_t i = 0; i < d.runs.size(); ++i) {
    const TimelineRun& r = d.runs[i];
    const std::string at = "run " + std::to_string(i);
    no_deadlock.require(!r.deadlocked, at + " deadlocked");
    lossless.require(r.lossless_violations == 0,
                     at + ": " + std::to_string(r.lossless_violations) +
                         " lossless violations");
    route.require(r.route_drops == 0, at + ": " +
                                          std::to_string(r.route_drops) +
                                          " route drops");
    gbps.require(r.per_host_gbps > 0 && r.per_host_gbps <= d.link_gbps,
                 at + ": " + std::to_string(r.per_host_gbps) +
                     " Gb/s per host outside (0, link rate]");
    flows.require(r.flows_started > 0 &&
                      r.flows_completed <= r.flows_started,
                  at + ": " + std::to_string(r.flows_completed) +
                      " completed of " + std::to_string(r.flows_started) +
                      " started");
    // Determinism: every run simulates the same inputs (untraced, traced,
    // sharded), so the exact work and outcome counts must agree.
    same.require(r.events == d.runs[0].events &&
                     r.flows_started == d.runs[0].flows_started &&
                     r.flows_completed == d.runs[0].flows_completed,
                 at + ": " + std::to_string(r.events) + " events vs " +
                     std::to_string(d.runs[0].events) + " in run 0");
  }
  return {no_deadlock.done(), lossless.done(), route.done(), gbps.done(),
          flows.done(),       pristine.done(), same.done()};
}

Checks check_campaign(const CampaignData& d) {
  Check ran("trials_ran");
  Check gfc("gfc_never_deadlocks");
  Check cbd_routing("cbd_routing_never_deadlocks");
  Check pfc("pfc_deadlocks_only_on_prone");
  Check free("cbd_free_never_deadlocks");
  Check witness("witness_in_enumeration");
  Check lossless("zero_lossless_violations");
  Check screen("screens_agree");
  Check closed("closed_loop_moves");
  for (std::size_t i = 0; i < d.trials.size(); ++i) {
    const TrialOutcome& t = d.trials[i];
    const std::string at = trial_label(t, i);
    ran.require(t.ran, at + " did not complete: " + t.error);
    if (!t.ran) continue;
    // Theorems 4.1 / 5.1: GFC never deadlocks, CBD present or not.
    if (is_gfc(t.mechanism)) gfc.require(!t.deadlocked, at + " deadlocked");
    // up*/down*: the restricted tables have no CBD, so nothing can wedge.
    if (t.mechanism == "CBD-routing") {
      cbd_routing.require(!t.fabric_prone,
                          at + ": up*/down* routing screens as CBD-prone");
      cbd_routing.require(!t.deadlocked, at + " deadlocked");
    }
    if (t.mechanism == "PFC")
      pfc.require(!t.deadlocked || (t.scan_prone && t.fabric_prone),
                  at + " deadlocked on a seed the screen calls CBD-free");
    // No cyclic buffer dependency, no circular wait: any mechanism.
    if (!t.fabric_prone)
      free.require(!t.deadlocked, at + " deadlocked on a CBD-free fabric");
    if (t.witness_armed && t.deadlocked) {
      witness.require(t.witness_checks > 0 || t.enumeration_truncated,
                      at + " deadlocked but no witness cycle was matched "
                           "against the static enumeration");
    }
    if (t.lossless)
      lossless.require(t.lossless_violations == 0,
                       at + ": " + std::to_string(t.lossless_violations) +
                           " lossless violations");
    if (t.mechanism != "CBD-routing")
      screen.require(t.fabric_prone == t.scan_prone,
                     at + ": topo::cbd_prone and analyze::screen_cbd "
                          "disagree");
    if (t.kind != TrialKind::kStress)
      closed.require(t.flows_started > 0 &&
                         t.flows_completed <= t.flows_started &&
                         t.per_host_gbps > 0,
                     at + ": " + std::to_string(t.flows_completed) + "/" +
                         std::to_string(t.flows_started) + " flows, " +
                         std::to_string(t.per_host_gbps) + " Gb/s per host");
  }
  return {ran.done(),     gfc.done(),      cbd_routing.done(),
          pfc.done(),     free.done(),     witness.done(),
          lossless.done(), screen.done(),  closed.done()};
}

Checks check_sweep(const SweepData& d) {
  Check count("combo_count");
  Check verdict("verdict_matches_cbd_prone");
  Check flips("flips_consistent");
  Check trunc("truncation_is_at_risk");
  Check scratch("incremental_equals_scratch");
  Check repeat("rounds_agree");
  std::vector<int> verdicts;
  for (const SweepPart& p : d.parts) {
    // Every combination of 1..max_failures candidate links, each once.
    std::uint64_t expect = 0;
    for (int i = 1; i <= p.max_failures; ++i)
      expect += binomial(p.candidate_links, static_cast<std::uint64_t>(i));
    std::set<std::vector<std::int32_t>> seen;
    for (const ComboOutcome& c : p.combos) {
      const bool sorted = std::is_sorted(c.links.begin(), c.links.end()) &&
                          std::adjacent_find(c.links.begin(),
                                             c.links.end()) == c.links.end();
      count.require(sorted && !c.links.empty() &&
                        static_cast<int>(c.links.size()) <= p.max_failures &&
                        seen.insert(c.links).second,
                    p.name + ": a combo repeats or is not a valid subset");
    }
    count.require(p.combos.size() == expect,
                  p.name + ": " + std::to_string(p.combos.size()) +
                      " combos, expected " + std::to_string(expect) + " from " +
                      std::to_string(p.candidate_links) + " links");
    verdict.require((p.baseline_verdict == kDeadlockFree) ==
                        !p.baseline_reference_prone,
                    p.name + ": baseline verdict disagrees with cbd_prone");
    std::size_t flipped = 0;
    for (std::size_t i = 0; i < p.combos.size(); ++i) {
      const ComboOutcome& c = p.combos[i];
      const std::string at = p.name + " combo " + std::to_string(i);
      verdict.require((c.verdict == kDeadlockFree) == !c.reference_prone,
                      at + ": verdict " + std::to_string(c.verdict) +
                          " but cbd_prone says " +
                          (c.reference_prone ? "prone" : "free"));
      flips.require(c.flips == (p.baseline_verdict == kDeadlockFree &&
                                c.verdict != kDeadlockFree),
                    at + ": flip flag disagrees with its verdict");
      if (c.flips) ++flipped;
      trunc.require(!c.truncated ||
                        (c.verdict == kAtRisk && c.cycles == p.max_cycles),
                    at + ": truncated enumeration not at_risk at the cap");
      trunc.require(c.truncated || c.cycles <= p.max_cycles,
                    at + ": untruncated enumeration exceeds the cap");
      if (c.has_scratch)
        scratch.require(c.scratch_verdict == c.verdict &&
                            c.scratch_cycles == c.cycles,
                        at + ": incremental " + std::to_string(c.cycles) +
                            " cycles vs from-scratch " +
                            std::to_string(c.scratch_cycles));
      verdicts.push_back(c.verdict);
    }
    flips.require(flipped == p.flipped,
                  p.name + ": report counts " + std::to_string(p.flipped) +
                      " flips, combos show " + std::to_string(flipped));
  }
  for (std::size_t r = 0; r < d.repeat_verdicts.size(); ++r)
    repeat.require(d.repeat_verdicts[r] == verdicts,
                   "round " + std::to_string(r + 1) +
                       " verdicts differ from the checked round");
  return {count.done(), verdict.done(), flips.done(),
          trunc.done(), scratch.done(), repeat.done()};
}

std::vector<Corruption<TimelineData>> timeline_corruptions() {
  return {
      {"deadlock", "no_deadlock",
       [](TimelineData& d) { d.runs.at(0).deadlocked = true; }},
      {"lossless_violation", "zero_lossless_violations",
       [](TimelineData& d) { d.runs.at(0).lossless_violations = 1; }},
      {"route_drop", "zero_route_drops",
       [](TimelineData& d) { d.runs.at(0).route_drops = 1; }},
      {"gbps_above_link", "gbps_in_range",
       [](TimelineData& d) { d.runs.at(0).per_host_gbps = d.link_gbps * 1.01; }},
      {"gbps_zero", "gbps_in_range",
       [](TimelineData& d) { d.runs.at(0).per_host_gbps = 0; }},
      {"completed_exceeds_started", "flows_bounded",
       [](TimelineData& d) {
         d.runs.at(0).flows_completed = d.runs.at(0).flows_started + 1;
       }},
      {"pristine_prone", "pristine_cbd_free",
       [](TimelineData& d) { d.pristine_prone = true; }},
      {"events_differ", "same_inputs_same_events",
       [](TimelineData& d) { d.runs.at(1).events += 1; }},
  };
}

std::vector<Corruption<CampaignData>> campaign_corruptions() {
  auto any_trial = [](const char* mech, auto pred) {
    return [mech, pred](CampaignData& d) {
      pred(find_or_throw(
          d.trials,
          [mech](const TrialOutcome& t) {
            return t.ran && t.mechanism == mech;
          },
          mech));
    };
  };
  return {
      {"trial_threw", "trials_ran",
       [](CampaignData& d) {
         d.trials.at(0).ran = false;
         d.trials.at(0).error = "injected";
       }},
      {"gfc_deadlock", "gfc_never_deadlocks",
       any_trial("GFC-buffer", [](TrialOutcome& t) { t.deadlocked = true; })},
      {"cbd_routing_deadlock", "cbd_routing_never_deadlocks",
       any_trial("CBD-routing", [](TrialOutcome& t) { t.deadlocked = true; })},
      {"pfc_deadlock_on_free_seed", "pfc_deadlocks_only_on_prone",
       [](CampaignData& d) {
         find_or_throw(
             d.trials,
             [](const TrialOutcome& t) {
               return t.ran && t.mechanism == "PFC" && !t.scan_prone;
             },
             "PFC on a CBD-free seed")
             .deadlocked = true;
       }},
      {"cbfc_deadlock_on_free_fabric", "cbd_free_never_deadlocks",
       [](CampaignData& d) {
         find_or_throw(
             d.trials,
             [](const TrialOutcome& t) {
               return t.ran && t.mechanism == "CBFC" && !t.fabric_prone;
             },
             "CBFC on a CBD-free fabric")
             .deadlocked = true;
       }},
      {"witness_unmatched", "witness_in_enumeration",
       any_trial("PFC",
                 [](TrialOutcome& t) {
                   // A deadlock the oracle saw but could not match, on a
                   // fully enumerated fabric.
                   t.witness_armed = true;
                   t.deadlocked = true;
                   t.scan_prone = t.fabric_prone = true;
                   t.enumeration_truncated = false;
                   t.witness_checks = 0;
                 })},
      {"lossless_violation", "zero_lossless_violations",
       any_trial("GFC-time",
                 [](TrialOutcome& t) { t.lossless_violations = 1; })},
      {"screens_disagree", "screens_agree",
       any_trial("CBFC", [](TrialOutcome& t) { t.fabric_prone = !t.scan_prone; })},
      {"closed_loop_stalled", "closed_loop_moves",
       [](CampaignData& d) {
         find_or_throw(
             d.trials,
             [](const TrialOutcome& t) {
               return t.ran && t.kind == TrialKind::kClosedLoop;
             },
             "a closed-loop trial")
             .per_host_gbps = 0;
       }},
  };
}

std::vector<Corruption<SweepData>> sweep_corruptions() {
  return {
      {"flipped_verdict", "verdict_matches_cbd_prone",
       [](SweepData& d) {
         ComboOutcome& c = d.parts.at(0).combos.at(0);
         c.verdict = c.verdict == kDeadlockFree ? kAtRisk : kDeadlockFree;
       }},
      {"missing_combo", "combo_count",
       [](SweepData& d) { d.parts.at(0).combos.pop_back(); }},
      {"repeated_combo", "combo_count",
       [](SweepData& d) {
         auto& combos = d.parts.at(0).combos;
         combos.at(1).links = combos.at(0).links;
       }},
      {"flip_count", "flips_consistent",
       [](SweepData& d) { d.parts.at(0).flipped += 1; }},
      {"truncated_but_free", "truncation_is_at_risk",
       [](SweepData& d) {
         ComboOutcome& c = d.parts.at(0).combos.at(0);
         c.truncated = true;
         c.verdict = kDeadlockFree;
         c.reference_prone = false;
       }},
      {"scratch_differs", "incremental_equals_scratch",
       [](SweepData& d) {
         ComboOutcome& c = find_or_throw(
             d.parts.at(0).combos,
             [](const ComboOutcome& x) { return x.has_scratch; },
             "a combo with a from-scratch analysis");
         c.scratch_cycles += 1;
       }},
      {"round_differs", "rounds_agree",
       [](SweepData& d) {
         std::vector<int> v;
         for (const SweepPart& p : d.parts)
           for (const ComboOutcome& c : p.combos) v.push_back(c.verdict);
         v.at(0) = v.at(0) == kDeadlockFree ? kAtRisk : kDeadlockFree;
         d.repeat_verdicts.push_back(v);
       }},
  };
}

}  // namespace perfbench
