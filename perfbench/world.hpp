// A workload's description and the running system it is measured on.
//
// A World is everything one run of a workload talks to: the origin
// engine, its ConcurrentServer (and CacheWarmer when the workload warms),
// a replication Publisher with one in-process Replica over a Unix
// socket, and the replica's own ConcurrentServer. build_world() is the
// timed set-up; it ends only when the caches are filled, lazy routes have
// had their first touch, the replica has synced and the first warming
// cycle is done, so none of that lands in the measured windows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nav/pipeline.hpp"
#include "nav/profile.hpp"
#include "nav/route.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "repl/publisher.hpp"
#include "repl/replica.hpp"
#include "serve/cache_warmer.hpp"
#include "serve/concurrent_server.hpp"

#include "bench_util.hpp"

namespace navbench {

namespace nav = navsep::nav;
namespace obs = navsep::obs;
namespace repl = navsep::repl;
namespace serve = navsep::serve;

/// A route program plus the second expression edit_route toggles it to.
struct RouteSpec {
  nav::RouteProgram program;
  std::string alternate;
};

/// How the visitors of a workload pick what to read.
struct ReadMix {
  std::size_t generators = 1;   ///< open-loop generator threads
  double rate_rps = 1000;       ///< offered GETs per second, all generators
  bool zipf = false;            ///< Zipf(1) over pages, else uniform
  /// Share of GETs on the base layer; the rest pick a profile uniformly.
  /// Negative: uniform over base and every profile alike.
  double base_share = 0.5;
  double slo_us = 1000;         ///< latency limit for read_slo_miss_frac
};

struct WorkloadSpec {
  std::string name;
  std::size_t painters = 10;
  std::size_t paintings_per_painter = 10;
  std::size_t movements = 6;
  std::vector<RouteSpec> routes;
  std::vector<nav::Profile> profiles;
  bool landmarks = false;
  bool warmer = false;
  std::size_t warm_top_n = 0;
  serve::CacheLimits limits;
  ReadMix reads;
  /// Retitles per second from a background author during the read
  /// window (0 = no writer while visitors read).
  double background_edit_hz = 0;
  /// Shares of --seconds: open-loop reads, closed-loop capacity, edits.
  double read_share = 0;
  double capacity_share = 0;
  double edit_share = 0;
  /// Open-loop visitors keep reading while the author edits.
  bool visitors_during_edits = false;
};

/// One visitor request: a page path on a layer ("" = base, else profile).
struct Key {
  std::uint32_t page = 0;
  std::uint32_t layer = 0;
};

/// The (page, layer) space a workload reads and how it draws from it.
class KeySpace {
 public:
  KeySpace(std::vector<std::string> pages, std::vector<std::string> layers,
           const ReadMix& mix, std::uint64_t seed);

  [[nodiscard]] Key draw(Rng& rng) const;
  [[nodiscard]] const std::string& path(Key k) const { return pages_[k.page]; }
  [[nodiscard]] const std::string& layer(Key k) const {
    return layers_[k.layer];
  }
  [[nodiscard]] const std::vector<std::string>& pages() const { return pages_; }
  [[nodiscard]] const std::vector<std::string>& layers() const {
    return layers_;
  }

  /// Popularity tables as the traffic of `draws` requests would leave
  /// them: the landmark scorer's and the warmer's input.
  [[nodiscard]] obs::TraceAggregate traffic(std::size_t draws,
                                            std::uint64_t seed) const;

 private:
  std::vector<std::string> pages_;
  std::vector<std::string> layers_;
  ReadMix mix_;
  std::vector<double> cdf_;             // Zipf over ranks
  std::vector<std::uint32_t> by_rank_;  // rank -> page index
};

struct SetupTimes {
  double world_ms = 0;
  double weave_ms = 0;
  double extras_ms = 0;
  double replica_sync_ms = 0;
  double fill_ms = 0;
  [[nodiscard]] double total_s() const {
    return (world_ms + weave_ms + extras_ms + replica_sync_ms + fill_ms) / 1000;
  }
};

/// Send one visitor GET to `server`.
inline navsep::site::Response fetch(const serve::ConcurrentServer& server,
                                    const KeySpace& keys, Key k) {
  const std::string& layer = keys.layer(k);
  return layer.empty() ? server.get(keys.path(k))
                       : server.get(keys.path(k), layer);
}

/// The same request rendered uncached against one pinned snapshot.
inline navsep::site::Response render(const serve::SiteSnapshot& snapshot,
                                     const std::string& path,
                                     const std::string& layer) {
  return layer.empty() ? snapshot.respond(path)
                       : snapshot.respond_as(layer, path);
}

class World {
 public:
  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World();

  // ~World() stops the threads first (warmer lane, replica, publisher),
  // then releases each part before what it points into.
  std::shared_ptr<obs::Registry> registry;  // traced runs only
  std::unique_ptr<nav::Engine> engine;
  std::unique_ptr<KeySpace> keys;
  std::unique_ptr<serve::ConcurrentServer> server;
  std::unique_ptr<serve::CacheWarmer> warmer;
  std::unique_ptr<repl::Publisher> publisher;
  std::unique_ptr<repl::Replica> replica;
  std::unique_ptr<serve::ConcurrentServer> replica_server;
  SetupTimes times;
};

/// Build and warm a World for `spec`. `traced` attaches an obs::Registry
/// to the engine, the publisher and the replica.
std::unique_ptr<World> build_world(const WorkloadSpec& spec,
                                   std::uint64_t seed, bool traced);

}  // namespace navbench
