// The closed-loop author: one navigation edit at a time, each followed by
// GETs of the edited page on the origin and then on the replica until the
// new bytes are served there.
//
// The mix cycles through eight steps. Seven are single edits — two
// replace_arc, two retitle_node, two edit_context_family and one
// edit_route, in a seeded order — and the eighth is a
// begin_batch/commit_batch of eight edits. Fixing the proportions (and
// seeding only the order and the targets) keeps the per-run percentiles
// comparable across seeds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "nav/buildgraph.hpp"
#include "world.hpp"

namespace navbench {

enum class EditKind { ReplaceArc, RetitleNode, EditFamily, EditRoute, Batch };

[[nodiscard]] const char* to_string(EditKind kind);

/// Sums of the spans the program recorded for one epoch (traced runs).
struct EpochSpans {
  double run_ms = 0;       ///< build.run
  double plan_ms = 0;      ///< build.plan
  double wave_ms = 0;      ///< build.wave.compute + build.wave.commit
  double publish_ms = 0;   ///< build.publish
  double encode_ms = 0;    ///< repl.encode
  double ship_ms = 0;      ///< repl.ship
  double apply_ms = 0;     ///< repl.apply
};

struct EditRecord {
  EditKind kind = EditKind::ReplaceArc;
  std::size_t edits = 1;       ///< mutations in the step (8 for a batch)
  bool ok = true;              ///< mutation ran and both servers agreed
  bool probe_changed = true;   ///< the probed response changed bytes
  double edit_ms = 0;          ///< the mutation call(s), publish included
  double probe_ms = 0;         ///< choosing the probe + the origin GET
  double wait_ms = 0;          ///< until the replica served the new bytes
  double visible_ms = 0;       ///< mutation start to replica serving it
  double step_ms = 0;          ///< the whole step, planning included
  std::uint64_t epoch = 0;     ///< origin epoch the step published
  std::uint64_t lag_epochs = 0;  ///< replica behind origin at mutation return
  nav::RebuildReport report;
  EpochSpans spans;            ///< filled by the caller in traced runs
  std::string error;
};

class Author {
 public:
  Author(World& world, const WorkloadSpec& spec, std::uint64_t seed);

  /// Steps in one cycle of the mix.
  static constexpr std::size_t kCycle = 8;

  /// Run the next step of the mix, closed-loop.
  EditRecord step();

 private:
  struct Probe {
    std::string path;
    std::string layer;
  };

  /// Pick the target of one mutation of `kind`, add the GETs whose bytes
  /// it should change to `probes`, and return the mutation call.
  std::function<nav::RebuildReport()> plan(EditKind kind,
                                           std::vector<Probe>& probes);

  /// A profile that sees `family` (a context family or a route), or "".
  [[nodiscard]] std::string profile_with(const std::string& family) const;

  World* world_;
  const WorkloadSpec* spec_;
  std::uint64_t seed_;
  Rng rng_;
  std::size_t steps_ = 0;
  std::size_t tags_ = 0;
  std::vector<EditKind> cycle_;
  std::shared_ptr<const serve::SiteSnapshot> before_;
};

/// Fold the spans recorded for `epoch` out of `registry`.
EpochSpans spans_for(const obs::Registry& registry, std::uint64_t epoch);

}  // namespace navbench
