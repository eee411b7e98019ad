#include "world.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "hypermedia/access.hpp"
#include "museum/museum.hpp"
#include "repl/transport.hpp"

namespace navbench {

namespace {

constexpr std::size_t kShards = serve::ConcurrentServer::kDefaultShards;

/// The museum itself is the same for every seed, so that runs compare one
/// site; the seed varies what visitors read and what the author edits.
constexpr std::uint64_t kSiteSeed = 42;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// A socket path inside the working directory, unique per World.
std::string next_socket_path() {
  static std::atomic<int> counter{0};
  std::filesystem::create_directories(".bench_build");
  return ".bench_build/nb-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

}  // namespace

KeySpace::KeySpace(std::vector<std::string> pages,
                   std::vector<std::string> layers, const ReadMix& mix,
                   std::uint64_t seed)
    : pages_(std::move(pages)), layers_(std::move(layers)), mix_(mix) {
  if (pages_.empty()) throw std::runtime_error("site has no pages");
  // Page popularity rank is a seeded permutation, so each seed has its
  // own hot set.
  by_rank_.resize(pages_.size());
  for (std::size_t i = 0; i < by_rank_.size(); ++i) {
    by_rank_[i] = static_cast<std::uint32_t>(i);
  }
  Rng rng(seed, 0x9a9e);
  for (std::size_t i = by_rank_.size(); i > 1; --i) {
    std::swap(by_rank_[i - 1], by_rank_[rng.below(i)]);
  }
  if (mix_.zipf) {
    double total = 0;
    cdf_.reserve(pages_.size());
    for (std::size_t r = 0; r < pages_.size(); ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
}

Key KeySpace::draw(Rng& rng) const {
  Key k;
  if (mix_.zipf) {
    const double u = rng.uniform();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    k.page = by_rank_[static_cast<std::size_t>(it - cdf_.begin())];
  } else {
    k.page = static_cast<std::uint32_t>(rng.below(pages_.size()));
  }
  if (layers_.size() > 1) {
    if (mix_.base_share < 0) {
      k.layer = static_cast<std::uint32_t>(rng.below(layers_.size()));
    } else if (rng.uniform() >= mix_.base_share) {
      k.layer = static_cast<std::uint32_t>(1 + rng.below(layers_.size() - 1));
    }
  }
  return k;
}

obs::TraceAggregate KeySpace::traffic(std::size_t draws,
                                      std::uint64_t seed) const {
  obs::TraceAggregate agg;
  Rng rng(seed, 0x7aff1c);
  for (std::size_t i = 0; i < draws; ++i) {
    const Key k = draw(rng);
    ++agg.page_views[path(k)];
    if (!layer(k).empty()) ++agg.profile_page_views[{layer(k), path(k)}];
    ++agg.events;
    ++agg.recorded;
  }
  return agg;
}

World::~World() {
  if (warmer) warmer->stop();
  replica_server.reset();
  if (replica) replica->stop();
  if (publisher) publisher->stop();
  warmer.reset();
  replica.reset();
  publisher.reset();
  server.reset();
  engine.reset();
}

std::unique_ptr<World> build_world(const WorkloadSpec& spec,
                                   std::uint64_t seed, bool traced) {
  auto w = std::make_unique<World>();
  if (traced) w->registry = std::make_shared<obs::Registry>();

  auto t0 = Clock::now();
  auto museum = navsep::museum::MuseumWorld::synthetic(
      navsep::museum::SyntheticSpec{
          .painters = spec.painters,
          .paintings_per_painter = spec.paintings_per_painter,
          .movements = spec.movements,
          .seed = kSiteSeed});
  auto t1 = Clock::now();
  w->times.world_ms = ms_between(t0, t1);

  w->engine = nav::SitePipeline()
                  .conceptual(std::move(museum))
                  .access(navsep::hypermedia::AccessStructureKind::
                              IndexedGuidedTour)
                  .contexts({"ByAuthor", "ByMovement"})
                  .weave_workers(2)
                  .weave()
                  .serve();
  t0 = Clock::now();
  w->times.weave_ms = ms_between(t1, t0);

  nav::EngineInternals& in = w->engine->internals();
  if (traced) in.attach_telemetry(w->registry);
  for (const RouteSpec& route : spec.routes) {
    (void)in.register_route(route.program);
  }
  for (const nav::Profile& profile : spec.profiles) {
    in.register_profile(profile);
  }

  std::vector<std::string> pages;
  for (const auto& [path, body] : in.snapshots().current()->files()) {
    if (ends_with(path, ".html")) pages.push_back(path);
  }
  std::vector<std::string> layers{""};
  for (const nav::Profile& profile : spec.profiles) {
    layers.push_back(profile.name);
  }
  w->keys = std::make_unique<KeySpace>(std::move(pages), std::move(layers),
                                       spec.reads, seed);
  const obs::TraceAggregate traffic = w->keys->traffic(20000, seed);
  if (spec.landmarks) (void)in.enable_landmarks(traffic, {.top_k = 8});
  t1 = Clock::now();
  w->times.extras_ms = ms_between(t0, t1);

  w->server = w->engine->open_concurrent(kShards, spec.limits);
  const std::string socket_path = next_socket_path();
  std::filesystem::remove(socket_path);
  repl::PublisherOptions popts;
  popts.telemetry = w->registry;
  w->publisher = w->engine->open_publisher(
      repl::Endpoint::unix_socket(socket_path), popts);
  w->replica = std::make_unique<repl::Replica>(
      repl::Connection::connect(w->publisher->endpoint()));
  if (traced) w->replica->attach_telemetry(w->registry);
  w->replica->start();
  if (!w->replica->wait_for_epoch(in.snapshots().epoch(),
                                  std::chrono::seconds(60))) {
    throw std::runtime_error("replica did not sync: " + w->replica->error());
  }
  w->replica_server = std::make_unique<serve::ConcurrentServer>(
      w->replica->store(), kShards, spec.limits);
  t0 = Clock::now();
  w->times.replica_sync_ms = ms_between(t1, t0);

  // Fill: with unbounded caches every key once; with bounded ones twice
  // the capacity's worth of the workload's own draws. Either pass also
  // makes the first touch of every lazy route the profiles use.
  const KeySpace& keys = *w->keys;
  const bool bounded =
      spec.limits.overlay_entries_per_shard != serve::CacheLimits::kUnbounded;
  if (!bounded) {
    for (std::uint32_t p = 0; p < keys.pages().size(); ++p) {
      for (std::uint32_t l = 0; l < keys.layers().size(); ++l) {
        (void)fetch(*w->server, keys, Key{p, l});
      }
    }
  } else {
    for (std::uint32_t l = 1; l < keys.layers().size(); ++l) {
      (void)fetch(*w->server, keys, Key{0, l});
    }
    const std::size_t fill =
        2 * kShards *
        (spec.limits.base_entries_per_shard +
         spec.limits.overlay_entries_per_shard);
    Rng rng(seed, 0xf111);
    for (std::size_t i = 0; i < fill; ++i) {
      (void)fetch(*w->server, keys, keys.draw(rng));
    }
  }
  if (spec.warmer) {
    w->warmer = std::make_unique<serve::CacheWarmer>(
        *w->server, serve::CacheWarmer::Options{.top_n = spec.warm_top_n});
    w->warmer->set_feed(traffic.top_entries(spec.warm_top_n));
    w->warmer->start();
    while (w->warmer->stats().cycles == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  w->times.fill_ms = ms_between(t0, Clock::now());
  return w;
}

}  // namespace navbench
