#include "author.hpp"

#include <algorithm>
#include <functional>
#include <thread>

#include "core/navigation_aspect.hpp"
#include "hypermedia/context.hpp"
#include "nav/route.hpp"

namespace navbench {

namespace {

namespace hm = navsep::hypermedia;

/// How long the author waits for the replica to serve an edit before
/// counting it as not converged.
constexpr auto kReplicaTimeout = std::chrono::seconds(30);

constexpr EditKind kBatchKinds[] = {
    EditKind::ReplaceArc, EditKind::RetitleNode, EditKind::EditFamily,
    EditKind::EditRoute,  EditKind::ReplaceArc,  EditKind::RetitleNode,
    EditKind::EditFamily, EditKind::ReplaceArc};

std::string href(const std::string& node_id) {
  return navsep::core::default_href_for(node_id);
}

bool is_index(const std::string& node_id) {
  return node_id.rfind("index", 0) == 0;
}

}  // namespace

const char* to_string(EditKind kind) {
  switch (kind) {
    case EditKind::ReplaceArc: return "replace_arc";
    case EditKind::RetitleNode: return "retitle_node";
    case EditKind::EditFamily: return "edit_family";
    case EditKind::EditRoute: return "edit_route";
    case EditKind::Batch: return "commit_batch";
  }
  return "?";
}

Author::Author(World& world, const WorkloadSpec& spec, std::uint64_t seed)
    : world_(&world), spec_(&spec), seed_(seed), rng_(seed, 0xa7) {}

std::string Author::profile_with(const std::string& family) const {
  for (const nav::Profile& profile : spec_->profiles) {
    if (std::find(profile.families.begin(), profile.families.end(), family) !=
        profile.families.end()) {
      return profile.name;
    }
  }
  return "";
}

// Planning happens before the timed call, so that nothing the benchmark
// computes lands in the edit time.
std::function<nav::RebuildReport()> Author::plan(EditKind kind,
                                                 std::vector<Probe>& probes) {
  nav::EngineInternals& in = world_->engine->internals();
  const std::string tag = std::to_string(seed_) + "." + std::to_string(++tags_);
  switch (kind) {
    case EditKind::ReplaceArc: {
      const std::vector<hm::AccessArc> arcs = in.authored_arcs();
      const std::size_t index = rng_.below(arcs.size());
      hm::AccessArc arc = arcs[index];
      arc.title = "arc " + tag;
      probes.push_back({href(arc.from), ""});
      return [&in, index, arc] { return in.replace_arc(index, arc); };
    }
    case EditKind::RetitleNode: {
      const std::vector<hm::Member> members =
          world_->engine->structure().members();
      const std::string node = members[rng_.below(members.size())].node_id;
      std::vector<std::string> from;
      for (const hm::AccessArc& arc : in.authored_arcs()) {
        if (arc.to == node &&
            std::find(from.begin(), from.end(), arc.from) == from.end()) {
          from.push_back(arc.from);
        }
      }
      std::stable_partition(
          from.begin(), from.end(),
          [](const std::string& id) { return !is_index(id); });
      for (const std::string& id : from) probes.push_back({href(id), ""});
      return [&in, node, title = "title " + tag] {
        return in.retitle_node(node, title);
      };
    }
    case EditKind::EditFamily: {
      const std::string family = rng_.below(2) == 0 ? "ByAuthor" : "ByMovement";
      std::vector<const hm::NavigationalContext*> tours;
      for (const hm::ContextFamily& f : world_->engine->context_families()) {
        if (f.name() != family) continue;
        for (const hm::NavigationalContext& c : f.contexts()) {
          if (c.size() >= 2) tours.push_back(&c);
        }
      }
      if (tours.empty()) break;
      const hm::NavigationalContext& tour = *tours[rng_.below(tours.size())];
      const std::string profile = profile_with(family);
      const std::vector<std::string>& ids = tour.node_ids();
      for (const std::string* id : {&ids.front(), &ids.back(), &ids[1]}) {
        probes.push_back({href(*id), profile});
      }
      return [&in, family, name = tour.name()] {
        return in.edit_context_family(family, [&name](hm::ContextFamily& f) {
          std::vector<hm::NavigationalContext> contexts = f.contexts();
          for (hm::NavigationalContext& c : contexts) {
            if (c.name() != name) continue;
            std::vector<std::string> ids = c.node_ids();
            std::rotate(ids.begin(), ids.begin() + 1, ids.end());
            c = hm::NavigationalContext(c.family(), c.name(), std::move(ids));
          }
          f.replace_contexts(std::move(contexts));
        });
      };
    }
    case EditKind::EditRoute: {
      const RouteSpec& route = spec_->routes[rng_.below(spec_->routes.size())];
      const std::string& name = route.program.name;
      std::string current;
      for (const nav::RouteProgram& p : in.routes()) {
        if (p.name == name) current = p.expression;
      }
      const std::string original =
          nav::print_route(nav::parse_route(route.program.expression));
      const std::string next = current == original ? route.alternate
                                                   : route.program.expression;
      // Nodes entering or leaving the route's tour change their overlay.
      std::vector<std::string> exclude;
      if (before_->route_table() != nullptr) {
        for (const auto& entry : before_->route_table()->entries) {
          exclude.push_back(entry.source);
        }
      }
      const auto& arcs = *before_->overlay_arcs();
      const auto old_ids =
          nav::expand_route(nav::parse_route(current), arcs, exclude);
      const auto new_ids =
          nav::expand_route(nav::parse_route(next), arcs, exclude);
      std::vector<std::string> moved;
      std::set_symmetric_difference(old_ids.begin(), old_ids.end(),
                                    new_ids.begin(), new_ids.end(),
                                    std::back_inserter(moved));
      const std::string profile = profile_with(name);
      for (std::size_t i = 0; i < moved.size() && i < 3; ++i) {
        probes.push_back({href(moved[i]), profile});
      }
      return [&in, name, next] { return in.edit_route(name, next); };
    }
    case EditKind::Batch:
      break;
  }
  return [] { return nav::RebuildReport{}; };
}

EditRecord Author::step() {
  EditRecord rec;
  const auto t_plan = Clock::now();
  const std::size_t pos = steps_++ % kCycle;
  if (pos == 0) {
    cycle_ = {EditKind::ReplaceArc, EditKind::ReplaceArc,
              EditKind::RetitleNode, EditKind::RetitleNode,
              EditKind::EditFamily,  EditKind::EditFamily,
              EditKind::EditRoute};
    for (std::size_t i = cycle_.size(); i > 1; --i) {
      std::swap(cycle_[i - 1], cycle_[rng_.below(i)]);
    }
  }
  rec.kind = pos == kCycle - 1 ? EditKind::Batch : cycle_[pos];

  nav::EngineInternals& in = world_->engine->internals();
  before_ = in.snapshots().current();
  std::vector<Probe> probes;
  std::vector<std::function<nav::RebuildReport()>> mutations;
  if (rec.kind == EditKind::Batch) {
    for (EditKind kind : kBatchKinds) mutations.push_back(plan(kind, probes));
    rec.edits = mutations.size();
  } else {
    mutations.push_back(plan(rec.kind, probes));
  }

  // What each candidate serves now, so that after the edit only the new
  // side has to be rendered.
  std::vector<std::shared_ptr<const std::string>> was;
  for (const Probe& p : probes) {
    was.push_back(before_->contains(p.path)
                      ? render(*before_, p.path, p.layer).body
                      : nullptr);
  }

  const auto t0 = Clock::now();
  try {
    if (rec.kind == EditKind::Batch) {
      in.begin_batch();
      for (const auto& m : mutations) (void)m();
      rec.report = in.commit_batch();
    } else {
      rec.report = mutations.front()();
    }
  } catch (const std::exception& e) {
    if (in.batch_open()) (void)in.commit_batch();
    rec.ok = false;
    rec.error = std::string(to_string(rec.kind)) + " threw: " + e.what();
  }
  const auto t1 = Clock::now();
  rec.edit_ms = ms_between(t0, t1);

  const std::shared_ptr<const serve::SiteSnapshot> after =
      in.snapshots().current();
  rec.epoch = after->epoch();
  const std::uint64_t replica_epoch = world_->replica->store().epoch();
  rec.lag_epochs = rec.epoch > replica_epoch ? rec.epoch - replica_epoch : 0;

  // The probe: the first candidate whose bytes the edit changed, else any
  // changed artifact, else an unchanged page read at the new epoch.
  Probe probe;
  std::shared_ptr<const std::string> expected;
  rec.probe_changed = false;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (!after->contains(probes[i].path)) continue;
    const navsep::site::Response now =
        render(*after, probes[i].path, probes[i].layer);
    if (!now.ok()) continue;
    if (was[i] == nullptr || *was[i] != *now.body) {
      probe = probes[i];
      expected = now.body;
      rec.probe_changed = true;
      break;
    }
  }
  if (!rec.probe_changed) {
    for (const auto& [path, body] : after->files()) {
      const auto old = before_->body(path);
      if (old == body || (old != nullptr && *old == *body)) continue;
      probe = {path, ""};
      expected = body;
      rec.probe_changed = true;
      break;
    }
  }
  if (expected == nullptr) {
    probe = {world_->keys->pages().front(), ""};
    expected = render(*after, probe.path, probe.layer).body;
  }
  const navsep::site::Response origin =
      probe.layer.empty() ? world_->server->get(probe.path)
                          : world_->server->get(probe.path, probe.layer);
  if (rec.ok && (!origin.ok() || *origin.body != *expected)) {
    rec.ok = false;
    rec.error = "origin served wrong bytes for " + probe.path + " as '" +
                probe.layer + "'";
  }
  const auto t2 = Clock::now();
  rec.probe_ms = ms_between(t1, t2);

  const auto deadline = t2 + kReplicaTimeout;
  for (;;) {
    if (world_->replica->store().epoch() >= rec.epoch) {
      const navsep::site::Response r =
          probe.layer.empty()
              ? world_->replica_server->get(probe.path)
              : world_->replica_server->get(probe.path, probe.layer);
      if (!r.ok() || *r.body != *expected) {
        if (rec.ok) {
          rec.ok = false;
          rec.error = "replica served wrong bytes for " + probe.path;
        }
      }
      break;
    }
    if (Clock::now() > deadline) {
      rec.ok = false;
      rec.error = "replica did not reach epoch " + std::to_string(rec.epoch);
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  const auto t3 = Clock::now();
  rec.wait_ms = ms_between(t2, t3);
  rec.visible_ms = ms_between(t0, t3);
  rec.step_ms = ms_between(t_plan, t3);
  return rec;
}

EpochSpans spans_for(const obs::Registry& registry, std::uint64_t epoch) {
  EpochSpans out;
  for (const obs::Span& span : registry.spans().for_epoch(epoch)) {
    const double ms = static_cast<double>(span.duration_ns()) / 1e6;
    const std::string& n = span.name;
    if (n == "build.run") out.run_ms += ms;
    if (n == "build.plan") out.plan_ms += ms;
    if (n == "build.wave.compute" || n == "build.wave.commit") {
      out.wave_ms += ms;
    }
    if (n == "build.publish") out.publish_ms += ms;
    if (n == "repl.encode") out.encode_ms += ms;
    if (n == "repl.ship") out.ship_ms += ms;
    if (n == "repl.apply") out.apply_ms += ms;
  }
  return out;
}

}  // namespace navbench
