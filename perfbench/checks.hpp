// Output checks for the three workloads. Each check tests a property the
// method must have, or compares against a result computed apart from the
// code under test; none compares against stored output. The checks read
// plain records (below) so that the self-test can corrupt a record and
// show that the check catching it fails.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct CheckResult {
  std::string name;
  bool ok = true;
  std::string detail;  // first offending record when !ok
};
using Checks = std::vector<CheckResult>;

bool all_ok(const Checks& checks);

// --- k16_timeline ----------------------------------------------------------

/// One closed-loop timeline run (a round, or the traced / sharded rerun).
struct TimelineRun {
  bool deadlocked = false;
  std::uint64_t lossless_violations = 0;
  std::uint64_t route_drops = 0;
  double per_host_gbps = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t events = 0;  // Network::executed_events()
};

struct TimelineData {
  double link_gbps = 0;
  /// topo::cbd_prone on the pristine fat-tree with shortest-path routing.
  bool pristine_prone = false;
  std::vector<TimelineRun> runs;  // every run simulates the same inputs
};

Checks check_timeline(const TimelineData& d);

// --- k4_campaign -------------------------------------------------------------

enum class TrialKind { kStress, kClosedLoop, kFlap };

struct TrialOutcome {
  TrialKind kind = TrialKind::kStress;
  std::string mechanism;  // registry name: PFC, CBFC, GFC-buffer, ...
  bool lossless = true;   // mechanism promises zero lossless violations
  /// The scan's static screen (analyze::screen_cbd) of this seed's fabric
  /// under shortest-path routing.
  bool scan_prone = false;
  /// topo::cbd_prone on the routing this trial's fabric installed (up*/down*
  /// tables for CBD-routing, shortest paths otherwise).
  bool fabric_prone = false;
  bool witness_armed = false;
  /// The fabric's static enumeration hit its cap: a witness cannot be
  /// matched against a prefix of the cycle set, so the oracle skips it.
  bool enumeration_truncated = false;
  bool ran = false;  // the trial body completed (no throw, no timeout)
  std::string error;
  bool deadlocked = false;
  std::uint64_t lossless_violations = 0;
  int witness_checks = 0;
  double per_host_gbps = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
};

struct CampaignData {
  std::vector<TrialOutcome> trials;
};

Checks check_campaign(const CampaignData& d);

// --- k8_failure_sweep ----------------------------------------------------------

struct ComboOutcome {
  std::vector<std::int32_t> links;
  int verdict = 0;  // analyze::Verdict as int; 0 = deadlock_free
  std::size_t cycles = 0;
  bool truncated = false;
  bool flips = false;
  /// Independent reference: topo::cbd_prone on the failed, SPF-rerouted
  /// topology (computed in the checked round only).
  bool reference_prone = false;
  /// From-scratch analyze() on the same combo (traced run only).
  bool has_scratch = false;
  int scratch_verdict = 0;
  std::size_t scratch_cycles = 0;
};

struct SweepPart {
  std::string name;  // "k8" / "k4"
  std::size_t candidate_links = 0;  // up switch-to-switch links
  int max_failures = 0;
  std::size_t max_cycles = 0;
  int baseline_verdict = 0;
  bool baseline_reference_prone = false;
  std::size_t flipped = 0;
  std::vector<ComboOutcome> combos;
};

struct SweepData {
  std::vector<SweepPart> parts;
  /// Later rounds' verdict vectors, which must equal the checked round's.
  std::vector<std::vector<int>> repeat_verdicts;
};

Checks check_sweep(const SweepData& d);

// --- self-test -------------------------------------------------------------------

/// A named corruption of one workload's records and the check it must trip.
template <typename Data>
struct Corruption {
  std::string name;
  std::string must_fail;  // check name
  std::function<void(Data&)> apply;
};

std::vector<Corruption<TimelineData>> timeline_corruptions();
std::vector<Corruption<CampaignData>> campaign_corruptions();
std::vector<Corruption<SweepData>> sweep_corruptions();

}  // namespace perfbench
