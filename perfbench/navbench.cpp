// navbench — the end-to-end benchmark of both paths of the system.
//
// Visitors read woven pages through the request path (ConcurrentServer
// hit or miss, snapshot resolve, overlay compose or lazy route
// expansion); authors edit navigation through the edit path (mutation,
// plan, weave, publish, wire, replica apply, first byte served at the new
// epoch). Each run builds a World, measures it for --seconds, checks the
// served bytes and prints one JSON line last.
//
//   navbench --workload browse_hot|browse_cold|author_churn --seed N
//            --seconds S --trace 0|1 [--rev GITREV]
//   navbench --smoke
//
// browse_cold is not in BENCHMARK.json (see README.md) but runs the same
// way. --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// twice for S/2 each, untraced and then traced, and prints the per-layer
// metrics plus obs.trace_overhead_frac.<metric>, the traced run's
// end-to-end metrics relative to the untraced one. --smoke runs every
// workload small and short and checks the counters reconcile.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "author.hpp"
#include "bench_util.hpp"
#include "traffic.hpp"
#include "world.hpp"

#ifndef NAVBENCH_COMPILER
#define NAVBENCH_COMPILER "unknown"
#endif
#ifndef NAVBENCH_BUILD_TYPE
#define NAVBENCH_BUILD_TYPE "unknown"
#endif

namespace navbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better;
};

/// The end-to-end metrics every workload reports (BENCHMARK.json's
/// end_to_end list, in order). The report prints three more that are not
/// in this list: read_slo_miss_frac and failed_frac read 0 on a healthy
/// run, so there is no ratio to bound, and read_capacity_rps, which uses
/// every core at once, moved by up to half its median between runs as the
/// load of the virtual machine's host changed.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", false},
    {"read_p50_us", "us", false},
    {"read_p99_us", "us", false},
    {"edit_p50_ms", "ms", false},
    {"edit_p90_ms", "ms", false},
    {"replica_visible_p50_ms", "ms", false},
    {"replica_visible_p90_ms", "ms", false},
    {"edits_per_s", "edits/s", true},
    {"peak_rss_mb", "MiB", false},
};

/// The per-layer metrics of a traced run (BENCHMARK.json's per_layer
/// list, in order). Names ending in p50/p90/p99 are percentiles over the
/// run; the nav.*, repl.span.* and edit_path.* figures are means per
/// author step.
constexpr MetricDef kPerLayer[] = {
    {"setup.world_ms", "ms", false},
    {"setup.weave_ms", "ms", false},
    {"setup.extras_ms", "ms", false},
    {"setup.replica_sync_ms", "ms", false},
    {"setup.fill_ms", "ms", false},
    {"nav.replace_arc_ms.p50", "ms", false},
    {"nav.replace_arc_ms.p90", "ms", false},
    {"nav.retitle_node_ms.p50", "ms", false},
    {"nav.retitle_node_ms.p90", "ms", false},
    {"nav.edit_family_ms.p50", "ms", false},
    {"nav.edit_family_ms.p90", "ms", false},
    {"nav.edit_route_ms.p50", "ms", false},
    {"nav.edit_route_ms.p90", "ms", false},
    {"nav.commit_batch_ms.p50", "ms", false},
    {"nav.commit_batch_ms.p90", "ms", false},
    {"nav.nodes_dirty", "count", false},
    {"nav.nodes_rebuilt", "count", false},
    {"nav.pages_rewoven", "count", false},
    {"nav.linkbases_reauthored", "count", false},
    {"nav.max_parallel_weaves", "count", false},
    {"nav.rewoven_per_dirty", "ratio", true},
    {"nav.span.run_ms", "ms", false},
    {"nav.span.plan_ms", "ms", false},
    {"nav.span.wave_ms", "ms", false},
    {"nav.span.publish_ms", "ms", false},
    {"nav.unattributed_ms", "ms", false},
    {"nav.span_coverage", "ratio", true},
    {"serve.base_get_us.p50", "us", false},
    {"serve.base_get_us.p99", "us", false},
    {"serve.overlay_get_us.p50", "us", false},
    {"serve.overlay_get_us.p99", "us", false},
    {"serve.base.hit_ratio", "ratio", true},
    {"serve.overlay.hit_ratio", "ratio", true},
    {"serve.stale_refills", "count", false},
    {"serve.evicted_per_req", "ratio", false},
    {"serve.resident_mb", "MiB", false},
    {"snapshot.acquire_ns.p50", "ns", false},
    {"snapshot.respond_us.p50", "us", false},
    {"snapshot.respond_as_us.p50", "us", false},
    {"snapshot.respond_as_us.p99", "us", false},
    {"warm.cycle_ms", "ms", false},
    {"warm.attempted", "count", false},
    {"warm.useful_ratio", "ratio", true},
    {"serve.post_epoch_hit_ratio", "ratio", true},
    {"repl.delta_bytes_per_edit", "bytes", false},
    {"repl.full_frames", "count", false},
    {"repl.resync_fulls", "count", false},
    {"repl.lag_epochs", "count", false},
    {"repl.span.encode_ms", "ms", false},
    {"repl.span.ship_ms", "ms", false},
    {"repl.span.apply_ms", "ms", false},
    {"repl.ship_wait_ms", "ms", false},
    {"edit_path.mutation_ms", "ms", false},
    {"edit_path.probe_get_ms", "ms", false},
    {"edit_path.replica_wait_ms", "ms", false},
    {"edit_path.residual_ms", "ms", false},
    {"bench.offered_rps", "req/s", false},
    {"bench.realised_rps", "req/s", false},
    {"bench.gen_late_p99_us", "us", false},
    {"bench.backlog_mid", "count", false},
    {"bench.backlog_end", "count", false},
    {"bench.writes", "count", false},
    {"bench.epochs_published", "count", false},
    {"bench.probe_fallbacks", "count", false},
    {"bench.read_slo_miss_frac", "ratio", false},
    {"bench.failed_frac", "ratio", false},
};

// --- workloads --------------------------------------------------------------

// edit_route toggles a route between its expression and `<expression> |
// up`, which adds the index page: a different node set for the same
// expansion work, so every route edit changes some page's overlay and
// costs about the same either way.
RouteSpec route(const char* name, const char* expression,
                nav::RouteCompile mode) {
  return {{name, expression, mode}, std::string(expression) + " | up"};
}

constexpr auto kAot = nav::RouteCompile::Aot;
constexpr auto kLazy = nav::RouteCompile::Lazy;

const RouteSpec kWalk = route("walk", "index-entry / next*", kAot);

WorkloadSpec browse_hot() {
  WorkloadSpec s;
  s.name = "browse_hot";
  s.painters = 20;
  s.paintings_per_painter = 24;
  s.routes = {kWalk, route("authors", "@ByAuthor / next", kLazy)};
  s.profiles = {{"kiosk", {}},
                {"tour", {"ByAuthor"}},
                {"curator", {"ByMovement", "walk"}},
                {"wander", {"authors"}}};
  s.landmarks = true;
  s.warmer = true;
  s.warm_top_n = 256;
  // Base hits take ~1 us and overlay hits ~4 us; 40/60 rather than 50/50
  // keeps the median inside one of the two rather than between them.
  s.reads = {.generators = 2, .rate_rps = 20000, .zipf = true,
             .base_share = 0.4, .slo_us = 50};
  // Each publish leaves the first request through the lazy route to expand
  // it again. Twice a second puts those stalls at a few percent of the
  // read time, so read_p99_us sits inside them rather than on their edge.
  s.background_edit_hz = 2.0;
  s.read_share = 0.6;
  s.capacity_share = 0.15;
  s.edit_share = 0.25;
  return s;
}

WorkloadSpec browse_cold() {
  WorkloadSpec s;
  s.name = "browse_cold";
  s.painters = 30;
  s.paintings_per_painter = 50;
  s.routes = {kWalk,
              route("authors", "@ByAuthor / next", kLazy),
              route("movers", "@ByMovement / next", kLazy),
              route("skipper", "index-entry / next / next", kLazy)};
  s.profiles = {{"kiosk", {}},
                {"tour", {"ByAuthor"}},
                {"movement", {"ByMovement"}},
                {"everything", {"ByAuthor", "ByMovement"}},
                {"walker", {"walk"}},
                {"wander", {"authors"}},
                {"drift", {"movers", "ByAuthor"}},
                {"skim", {"skipper"}}};
  // About an eighth of each layer's working set fits: 16 shards × 12 of
  // 1501 base pages, 16 × 94 of 8 × 1501 overlay entries.
  s.limits.base_entries_per_shard = 12;
  s.limits.overlay_entries_per_shard = 94;
  // At this rate the index page's overlay renders (milliseconds each, and
  // a miss most of the time) hold up a few percent of requests, so
  // read_p99_us measures that tail rather than sitting on its edge.
  s.reads = {.generators = 3, .rate_rps = 45000, .zipf = false,
             .base_share = -1, .slo_us = 500};
  s.read_share = 0.45;
  s.capacity_share = 0.1;
  s.edit_share = 0.45;
  return s;
}

WorkloadSpec author_churn() {
  WorkloadSpec s;
  s.name = "author_churn";
  s.painters = 40;
  s.paintings_per_painter = 25;
  s.routes = {kWalk, route("authors", "@ByAuthor / next", kLazy)};
  s.profiles = {{"kiosk", {}},
                {"tour", {"ByAuthor"}},
                {"curator", {"ByMovement", "walk"}},
                {"wander", {"authors"}}};
  s.reads = {.generators = 1, .rate_rps = 2000, .zipf = false,
             .base_share = 0.4, .slo_us = 1000};
  s.capacity_share = 0.15;
  s.edit_share = 0.85;
  s.visitors_during_edits = true;
  return s;
}

/// The same workload shrunk for --smoke.
WorkloadSpec shrink(WorkloadSpec s) {
  s.painters = 4;
  s.paintings_per_painter = 6;
  s.movements = 3;
  s.reads.rate_rps = std::min(s.reads.rate_rps, 2000.0);
  if (s.limits.overlay_entries_per_shard != serve::CacheLimits::kUnbounded) {
    s.limits.base_entries_per_shard = 1;
    s.limits.overlay_entries_per_shard = 4;
  }
  return s;
}

// --- one measured run ------------------------------------------------------

struct RunResult {
  Metrics e2e;
  Metrics layer;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  ///< wrong bytes, unreconciled counters
  double setup_wall_s = 0, measure_wall_s = 0, check_wall_s = 0;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Check the counters each layer keeps against each other.
void reconcile(World& w, RunResult& r) {
  const auto ledger = [&](const char* who,
                          const serve::ConcurrentServer& server) {
    const auto s = server.unified_stats();
    for (const auto* layer : {&s.base, &s.overlay}) {
      if (layer->inserted != layer->entries + layer->evicted) {
        r.problems.push_back(std::string(who) + " cache ledger: inserted " +
                             std::to_string(layer->inserted) + " != entries " +
                             std::to_string(layer->entries) + " + evicted " +
                             std::to_string(layer->evicted));
      }
    }
  };
  ledger("origin", *w.server);
  ledger("replica", *w.replica_server);
  if (w.warmer != nullptr) {
    w.warmer->stop();  // the ledger only balances between cycles
    const auto s = w.warmer->stats();
    if (s.attempted != s.warmed + s.already_hot + s.no_room + s.not_found) {
      r.problems.push_back("warmer: attempted != sum of outcomes");
    }
  }
  const std::uint64_t origin_epoch = w.engine->internals().snapshots().epoch();
  if (!w.replica->wait_for_epoch(origin_epoch, std::chrono::seconds(30)) ||
      w.replica->store().epoch() != origin_epoch) {
    r.problems.push_back("replica epoch " +
                         std::to_string(w.replica->store().epoch()) +
                         " != origin epoch " + std::to_string(origin_epoch));
    return;
  }
  const auto origin = w.engine->internals().snapshots().current();
  const auto replica = w.replica->store().current();
  std::size_t differing = 0;
  if (replica->files().size() != origin->files().size()) ++differing;
  for (const auto& [path, body] : origin->files()) {
    const auto copy = replica->body(path);
    if (copy == nullptr || *copy != *body) ++differing;
  }
  if (differing != 0) {
    r.problems.push_back("replica artifacts differ from origin: " +
                         std::to_string(differing));
  }
}

/// Counter movements of the origin server's two cache layers, summed over
/// the windows in which visitors read.
struct ServeDelta {
  double base_hits = 0, base_requests = 0;
  double overlay_hits = 0, overlay_requests = 0;
  double stale_refills = 0, evicted = 0;

  void add(const serve::ConcurrentServer::UnifiedStats& a,
           const serve::ConcurrentServer::UnifiedStats& b) {
    base_hits += double(b.base.hits - a.base.hits);
    base_requests += double(b.base.requests - a.base.requests);
    overlay_hits += double(b.overlay.hits - a.overlay.hits);
    overlay_requests += double(b.overlay.requests - a.overlay.requests);
    stale_refills +=
        double((b.base.stale_refills - a.base.stale_refills) +
               (b.overlay.stale_refills - a.overlay.stale_refills));
    evicted += double((b.base.evicted - a.base.evicted) +
                      (b.overlay.evicted - a.overlay.evicted));
  }
};

/// How far ahead of its first due time a read window is scheduled, so its
/// generator threads are up and their buffers touched when it opens.
constexpr auto kWindowLead = std::chrono::milliseconds(30);

/// Upper bound on measured rounds per run (one per ~3 s of --seconds).
constexpr std::size_t kMaxRounds = 10;

template <typename T>
double pct(std::vector<T> v, double q) {
  return quantile(v, q);
}

RunResult run_workload(const WorkloadSpec& spec, std::uint64_t seed,
                       double seconds, bool traced, std::size_t setups) {
  RunResult r;
  const auto wall0 = Clock::now();

  // --- set-up, several times; the last World is the one measured --------
  std::unique_ptr<World> world;
  std::vector<double> totals, world_ms, weave_ms, extras_ms, sync_ms, fill_ms;
  for (std::size_t i = 0; i < setups; ++i) {
    world.reset();
    world = build_world(spec, seed, traced);
    const SetupTimes& t = world->times;
    totals.push_back(t.total_s());
    world_ms.push_back(t.world_ms);
    weave_ms.push_back(t.weave_ms);
    extras_ms.push_back(t.extras_ms);
    sync_ms.push_back(t.replica_sync_ms);
    fill_ms.push_back(t.fill_ms);
  }
  World& w = *world;
  const auto wall1 = Clock::now();
  r.setup_wall_s = ms_between(wall0, wall1) / 1000;
  r.e2e.set("setup_s", median(totals), "s");
  r.layer.set("setup.world_ms", median(world_ms), "ms");
  r.layer.set("setup.weave_ms", median(weave_ms), "ms");
  r.layer.set("setup.extras_ms", median(extras_ms), "ms");
  r.layer.set("setup.replica_sync_ms", median(sync_ms), "ms");
  r.layer.set("setup.fill_ms", median(fill_ms), "ms");

  const std::uint64_t epoch0 = w.engine->internals().snapshots().epoch();
  const auto pub0 = w.publisher->stats();
  const std::size_t clients =
      std::max(2u, std::thread::hardware_concurrency()) - 1;
  // About a thousand byte checks per read slice.
  const auto sample_every = [&](double window) {
    const double expected = spec.reads.rate_rps * window;
    return std::max<std::size_t>(64, static_cast<std::size_t>(expected / 1000));
  };

  // --- measured rounds ------------------------------------------------------
  // Each round runs a slice of every phase, so that each metric samples the
  // whole run rather than one stretch of it. Read percentiles and capacity
  // are medians over rounds, so a few rounds caught in a noisy stretch of
  // the host do not move them; edit percentiles pool every step.
  const std::size_t rounds = std::clamp<std::size_t>(
      static_cast<std::size_t>(seconds / 3), 1, kMaxRounds);
  const double slice = seconds / static_cast<double>(rounds);
  ReadWindow reads;
  std::vector<double> round_p50, round_p99, round_capacity;
  std::size_t background_writes = 0;
  HitCount post_epoch;
  ServeDelta serve_delta;
  std::vector<EditRecord> edits;
  Author author(w, spec, seed);
  std::size_t backlog_mid = 0, backlog_end = 0;  // worst read slice
  const auto add_reads = [&](const ReadWindow& window) {
    backlog_mid = std::max(backlog_mid, window.backlog_mid);
    backlog_end = std::max(backlog_end, window.backlog_end);
    round_p50.push_back(pct(window.latency_us, 0.50));
    round_p99.push_back(pct(window.latency_us, 0.99));
    append(reads, window);
  };
  // The author publishes new epochs: touching every profile once before a
  // read or capacity slice expands the lazy routes before it opens.
  const auto settle = [&] {
    for (std::uint32_t l = 1; l < w.keys->layers().size(); ++l) {
      (void)fetch(*w.server, *w.keys, Key{0, l});
    }
  };
  for (std::size_t round = 0; round < rounds; ++round) {
    if (spec.read_share > 0) {
      const double window = slice * spec.read_share;
      settle();
      const auto before = w.server->unified_stats();
      std::unique_ptr<BackgroundAuthor> bg;
      if (spec.background_edit_hz > 0) {
        bg = std::make_unique<BackgroundAuthor>(w, spec.background_edit_hz,
                                                seed * 1000 + round);
      }
      ReadWindow window_reads = run_read_window(
          *w.server, *w.keys, spec.reads, seed * 1000 + round,
          Clock::now() + kWindowLead, window,
          sample_every(window));
      if (bg != nullptr) {
        bg->stop();
        background_writes += bg->writes;
        post_epoch.hits += bg->post_epoch.hits;
        post_epoch.requests += bg->post_epoch.requests;
        r.failed += bg->failed;
        r.attempted += bg->writes;
      }
      serve_delta.add(before, w.server->unified_stats());
      add_reads(window_reads);
    }

    settle();
    round_capacity.push_back(run_capacity(*w.server, *w.keys, clients,
                                          seed * 1000 + round,
                                          slice * spec.capacity_share,
                                          r.attempted, r.failed));

    if (spec.edit_share > 0) {
      const double window = slice * spec.edit_share;
      const auto before = w.server->unified_stats();
      ReadWindow visitor_reads;
      std::jthread visitors;
      if (spec.visitors_during_edits) {
        visitors = std::jthread([&] {
          visitor_reads = run_read_window(
              *w.server, *w.keys, spec.reads, seed * 1000 + round,
              Clock::now() + kWindowLead, window,
              sample_every(window));
        });
      }
      const auto end =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(window));
      // The last slice runs on to the end of the author's cycle, so every
      // run pools whole cycles of the mix.
      const bool last = round + 1 == rounds;
      while (Clock::now() < end ||
             (last && edits.size() % Author::kCycle != 0)) {
        edits.push_back(author.step());
      }
      if (visitors.joinable()) visitors.join();
      if (spec.visitors_during_edits) {
        serve_delta.add(before, w.server->unified_stats());
        add_reads(visitor_reads);
      }
    }
  }
  const std::uint64_t epochs_published =
      w.engine->internals().snapshots().epoch() - epoch0;
  const auto wall2 = Clock::now();
  r.measure_wall_s = ms_between(wall1, wall2) / 1000;

  // --- correctness -----------------------------------------------------------
  r.attempted += reads.attempted;
  r.failed += reads.failed;
  const SampleCheck& check = reads.check;
  if (check.mismatched != 0) {
    r.problems.push_back(std::to_string(check.mismatched) + " of " +
                         std::to_string(check.checked) +
                         " sampled responses differ from an uncached render");
    r.failed += check.mismatched;
  }
  for (const EditRecord& e : edits) {
    r.attempted += e.edits;
    if (!e.ok) {
      r.failed += e.edits;
      r.problems.push_back(e.error);
    }
  }
  reconcile(w, r);
  r.e2e.set("peak_rss_mb", peak_rss_mb(), "MiB");
  r.check_wall_s = ms_between(wall2, Clock::now()) / 1000;

  // --- end-to-end -----------------------------------------------------------
  r.e2e.set("read_p50_us", median(round_p50), "us");
  r.e2e.set("read_p99_us", median(round_p99), "us");
  r.e2e.set("read_capacity_rps", median(round_capacity), "req/s");
  std::vector<double> edit_ms, visible_ms;
  double author_s = 0;
  std::size_t edits_done = 0;
  for (const EditRecord& e : edits) {
    edit_ms.push_back(e.edit_ms);
    visible_ms.push_back(e.visible_ms);
    author_s += e.step_ms / 1000;
    edits_done += e.edits;
  }
  r.e2e.set("edit_p50_ms", pct(edit_ms, 0.50), "ms");
  r.e2e.set("edit_p90_ms", pct(edit_ms, 0.90), "ms");
  r.e2e.set("replica_visible_p50_ms", pct(visible_ms, 0.50), "ms");
  r.e2e.set("replica_visible_p90_ms", pct(visible_ms, 0.90), "ms");
  r.e2e.set("edits_per_s", ratio(static_cast<double>(edits_done), author_s),
            "edits/s");
  r.e2e.set("read_slo_miss_frac",
            ratio(static_cast<double>(reads.slo_misses),
                  static_cast<double>(reads.attempted)),
            "ratio");
  r.e2e.set("failed_frac",
            ratio(static_cast<double>(r.failed),
                  static_cast<double>(r.attempted)),
            "ratio");

  // --- per layer ----------------------------------------------------------
  Metrics& L = r.layer;
  for (EditKind kind : {EditKind::ReplaceArc, EditKind::RetitleNode,
                        EditKind::EditFamily, EditKind::EditRoute,
                        EditKind::Batch}) {
    std::vector<double> ms;
    for (const EditRecord& e : edits) {
      if (e.kind == kind) ms.push_back(e.edit_ms);
    }
    const std::string base = std::string("nav.") + to_string(kind) + "_ms";
    L.set(base + ".p50", pct(ms, 0.50), "ms");
    L.set(base + ".p90", pct(ms, 0.90), "ms");
  }
  if (w.registry != nullptr) {
    for (EditRecord& e : edits) e.spans = spans_for(*w.registry, e.epoch);
  }
  using E = const EditRecord&;
  const auto mean = [&edits](auto field) {  // over author steps
    double sum = 0;
    for (E e : edits) sum += static_cast<double>(field(e));
    return edits.empty() ? 0.0 : sum / static_cast<double>(edits.size());
  };
  L.set("nav.nodes_dirty", mean([](E e) { return e.report.nodes_dirty; }),
        "count");
  L.set("nav.nodes_rebuilt", mean([](E e) { return e.report.nodes_rebuilt; }),
        "count");
  L.set("nav.pages_rewoven", mean([](E e) { return e.report.pages_rewoven; }),
        "count");
  L.set("nav.linkbases_reauthored",
        mean([](E e) { return e.report.linkbases_reauthored; }), "count");
  L.set("nav.max_parallel_weaves",
        mean([](E e) { return e.report.max_parallel_weaves; }), "count");
  L.set("nav.rewoven_per_dirty",
        ratio(L.get("nav.pages_rewoven"), L.get("nav.nodes_dirty")), "ratio");
  const double run_ms = mean([](E e) { return e.spans.run_ms; });
  const double plan_ms = mean([](E e) { return e.spans.plan_ms; });
  const double wave_ms = mean([](E e) { return e.spans.wave_ms; });
  const double publish_ms = mean([](E e) { return e.spans.publish_ms; });
  const double mutation_ms = mean([](E e) { return e.edit_ms; });
  L.set("nav.span.run_ms", run_ms, "ms");
  L.set("nav.span.plan_ms", plan_ms, "ms");
  L.set("nav.span.wave_ms", wave_ms, "ms");
  L.set("nav.span.publish_ms", publish_ms, "ms");
  // Leaf stages only: build.run encloses plan and the waves.
  const double spanned = plan_ms + wave_ms + publish_ms;
  L.set("nav.unattributed_ms",
        w.registry != nullptr ? mutation_ms - spanned : 0, "ms");
  L.set("nav.span_coverage", ratio(spanned, mutation_ms), "ratio");

  L.set("serve.base_get_us.p50", pct(reads.base_service_us, 0.50), "us");
  L.set("serve.base_get_us.p99", pct(reads.base_service_us, 0.99), "us");
  L.set("serve.overlay_get_us.p50", pct(reads.overlay_service_us, 0.50), "us");
  L.set("serve.overlay_get_us.p99", pct(reads.overlay_service_us, 0.99), "us");
  const ServeDelta& d = serve_delta;
  L.set("serve.base.hit_ratio", ratio(d.base_hits, d.base_requests), "ratio");
  L.set("serve.overlay.hit_ratio",
        ratio(d.overlay_hits, d.overlay_requests), "ratio");
  L.set("serve.stale_refills", d.stale_refills, "count");
  L.set("serve.evicted_per_req",
        ratio(d.evicted, d.base_requests + d.overlay_requests), "ratio");
  const auto resident = w.server->unified_stats();
  L.set("serve.resident_mb",
        double(resident.base.resident_bytes + resident.overlay.resident_bytes) /
            (1024.0 * 1024.0),
        "MiB");
  L.set("snapshot.acquire_ns.p50", pct(check.acquire_ns, 0.50), "ns");
  L.set("snapshot.respond_us.p50", pct(check.respond_us, 0.50), "us");
  L.set("snapshot.respond_as_us.p50", pct(check.respond_as_us, 0.50), "us");
  L.set("snapshot.respond_as_us.p99", pct(check.respond_as_us, 0.99), "us");

  if (w.warmer != nullptr) {
    const auto ws = w.warmer->stats();
    L.set("warm.attempted", double(ws.attempted), "count");
    L.set("warm.useful_ratio", ratio(double(ws.warmed), double(ws.attempted)),
          "ratio");
  } else {
    L.set("warm.attempted", 0, "count");
    L.set("warm.useful_ratio", 0, "ratio");
  }
  L.set("serve.post_epoch_hit_ratio",
        ratio(double(post_epoch.hits), double(post_epoch.requests)), "ratio");

  const auto pub1 = w.publisher->stats();
  L.set("repl.delta_bytes_per_edit",
        ratio(double(pub1.delta_bytes - pub0.delta_bytes),
              double(pub1.delta_frames - pub0.delta_frames)), "bytes");
  L.set("repl.full_frames", double(pub1.full_frames), "count");
  L.set("repl.resync_fulls", double(pub1.resync_fulls), "count");
  L.set("repl.lag_epochs", mean([](E e) { return e.lag_epochs; }), "count");
  L.set("repl.span.encode_ms", mean([](E e) { return e.spans.encode_ms; }),
        "ms");
  L.set("repl.span.ship_ms", mean([](E e) { return e.spans.ship_ms; }), "ms");
  L.set("repl.span.apply_ms", mean([](E e) { return e.spans.apply_ms; }), "ms");
  L.set("repl.ship_wait_ms",
        mean([](E e) { return e.visible_ms - e.edit_ms; }), "ms");

  // The stages of replica_visible, which must sum back to it.
  const double probe_ms = mean([](E e) { return e.probe_ms; });
  const double wait_ms = mean([](E e) { return e.wait_ms; });
  const double visible = mean([](E e) { return e.visible_ms; });
  L.set("edit_path.mutation_ms", mutation_ms, "ms");
  L.set("edit_path.probe_get_ms", probe_ms, "ms");
  L.set("edit_path.replica_wait_ms", wait_ms, "ms");
  L.set("edit_path.residual_ms",
        visible - (mutation_ms + probe_ms + wait_ms), "ms");

  std::size_t fallbacks = 0;
  for (const EditRecord& e : edits) fallbacks += e.probe_changed ? 0 : 1;
  const double sent = double(reads.latency_us.size());
  L.set("bench.offered_rps", spec.reads.rate_rps, "req/s");
  L.set("bench.realised_rps", ratio(sent, reads.seconds), "req/s");
  L.set("bench.gen_late_p99_us", pct(reads.late_us, 0.99), "us");
  L.set("bench.backlog_mid", double(backlog_mid), "count");
  L.set("bench.backlog_end", double(backlog_end), "count");
  L.set("bench.writes", double(background_writes + edits_done), "count");
  L.set("bench.epochs_published", double(epochs_published), "count");
  L.set("bench.probe_fallbacks", double(fallbacks), "count");
  L.set("bench.read_slo_miss_frac", r.e2e.get("read_slo_miss_frac"), "ratio");
  L.set("bench.failed_frac", r.e2e.get("failed_frac"), "ratio");

  // --- warming cycles, timed after everything above -----------------------
  if (traced && w.warmer != nullptr) {
    w.warmer->stop();
    const auto members = w.engine->structure().members();
    std::vector<double> cycles;
    for (std::size_t i = 0; i < 5; ++i) {
      (void)w.engine->internals().retitle_node(
          members[i % members.size()].node_id, "warm " + std::to_string(i));
      const auto t0 = Clock::now();
      (void)w.warmer->warm_now();
      cycles.push_back(ms_between(t0, Clock::now()));
    }
    L.set("warm.cycle_ms", median(cycles), "ms");
  } else {
    L.set("warm.cycle_ms", 0, "ms");
  }
  return r;
}

// --- output -----------------------------------------------------------------

void print_table(const char* title, const Metrics& m,
                 const std::string& prefix = "") {
  std::printf("# %s\n", title);
  for (const auto& item : m.items()) {
    if (item.name.rfind(prefix, 0) != 0) continue;
    std::printf("#   %-36s %16.6g %s\n", item.name.c_str(), item.value,
                item.unit.c_str());
  }
}

template <std::size_t N>
void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const Metrics& m, const MetricDef (&defs)[N]) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < N; ++i) {
    if (i != 0) out += ", ";
    out += std::string("\"") + defs[i].name + "\": {\"value\": " +
           json_number(m.get(defs[i].name)) + ", \"unit\": \"" +
           defs[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_walls(const RunResult& r) {
  std::printf("# wall: set-up %.2f s, measured %.2f s, checks %.2f s\n",
              r.setup_wall_s, r.measure_wall_s, r.check_wall_s);
}

void print_problems(const RunResult& r) {
  for (const std::string& p : r.problems) {
    std::printf("# PROBLEM: %s\n", p.c_str());
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string rev = "unknown";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      a.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--rev" && has_value) {
      a.rev = argv[++i];
    } else {
      return false;
    }
  }
  return a.smoke || (!a.workload.empty() && a.seconds > 0);
}

bool find_spec(const std::string& name, WorkloadSpec& out) {
  for (WorkloadSpec s : {browse_hot(), browse_cold(), author_churn()}) {
    if (s.name == name) {
      out = std::move(s);
      return true;
    }
  }
  return false;
}

int smoke() {
  bool ok = true;
  for (const WorkloadSpec& full :
       {browse_hot(), browse_cold(), author_churn()}) {
    const WorkloadSpec spec = shrink(full);
    const RunResult r = run_workload(spec, 7, 2.0, /*traced=*/true, 1);
    std::printf("# smoke %s: attempted %zu, failed %zu, problems %zu\n",
                spec.name.c_str(), r.attempted, r.failed, r.problems.size());
    print_problems(r);
    if (r.attempted == 0 || r.failed != 0 || !r.problems.empty()) ok = false;
  }
  std::printf("# smoke %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

int run(const Args& a) {
  WorkloadSpec spec;
  if (!find_spec(a.workload, spec)) {
    std::fprintf(stderr, "navbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  std::printf("# navbench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  std::printf("# host nproc=%u compiler=%s build=%s rev=%s\n",
              std::thread::hardware_concurrency(), NAVBENCH_COMPILER,
              NAVBENCH_BUILD_TYPE, a.rev.c_str());
  if (!a.trace) {
    const RunResult r = run_workload(spec, a.seed, a.seconds, false, 3);
    print_table("end-to-end", r.e2e);
    print_table("realised load", r.layer, "bench.");
    print_walls(r);
    print_problems(r);
    const bool correct = r.problems.empty() && r.failed == 0;
    print_json(correct, r.attempted, r.failed, r.e2e, kEndToEnd);
    return correct ? 0 : 1;
  }
  const RunResult plain = run_workload(spec, a.seed, a.seconds / 2, false, 1);
  RunResult traced = run_workload(spec, a.seed, a.seconds / 2, true, 1);
  for (const MetricDef& d : kEndToEnd) {
    const double u = plain.e2e.get(d.name);
    const double t = traced.e2e.get(d.name);
    const double worse = d.higher_is_better ? ratio(u, t) : ratio(t, u);
    traced.layer.set(std::string("obs.trace_overhead_frac.") + d.name,
                     worse == 0 ? 0 : worse - 1, "ratio");
  }
  print_table("end-to-end, untraced half", plain.e2e);
  print_table("end-to-end, traced half", traced.e2e);
  print_table("per layer, traced half", traced.layer);
  print_problems(plain);
  print_problems(traced);
  const std::size_t attempted = plain.attempted + traced.attempted;
  const std::size_t failed = plain.failed + traced.failed;
  const bool correct =
      plain.problems.empty() && traced.problems.empty() && failed == 0;
  static constexpr std::size_t kLayers =
      std::size(kPerLayer) + std::size(kEndToEnd);
  MetricDef defs[kLayers];
  std::vector<std::string> names;
  names.reserve(kLayers);
  std::size_t n = 0;
  for (const MetricDef& d : kPerLayer) defs[n++] = d;
  for (const MetricDef& d : kEndToEnd) {
    names.push_back(std::string("obs.trace_overhead_frac.") + d.name);
    defs[n++] = {names.back().c_str(), "ratio", false};
  }
  print_json(correct, attempted, failed, traced.layer, defs);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace navbench

int main(int argc, char** argv) {
  navbench::Args args;
  if (!navbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: navbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--rev REV]\n       navbench --smoke\n");
    return 2;
  }
  try {
    return args.smoke ? navbench::smoke() : navbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "navbench: %s\n", e.what());
    return 1;
  }
}
