// Visitors: the open-loop read window, the closed-loop capacity window,
// the background author that keeps epochs moving while visitors read,
// and the byte-for-byte check of sampled responses.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "world.hpp"

namespace navbench {

/// The byte-for-byte check of sampled responses: each is compared with an
/// uncached render against the snapshot current just before it was served
/// (or, if an epoch was published meanwhile, the one just after).
struct SampleCheck {
  std::size_t checked = 0;
  std::size_t mismatched = 0;
  std::vector<double> respond_us;     ///< uncached base renders
  std::vector<double> respond_as_us;  ///< uncached overlay renders
  std::vector<double> acquire_ns;     ///< the snapshot() call pinning it
};

struct ReadWindow {
  double seconds = 0;          ///< scheduled window length
  std::size_t attempted = 0;   ///< GETs due inside the window
  std::size_t failed = 0;      ///< non-200s, and GETs never sent because
                               ///< the generator fell too far behind
  std::size_t slo_misses = 0;  ///< slower than the limit, or failed
  std::vector<float> latency_us;  ///< from the due time, every GET sent
  std::vector<float> late_us;     ///< start minus due time
  std::vector<float> base_service_us;     ///< get() call alone, base layer
  std::vector<float> overlay_service_us;  ///< get() call alone, overlays
  std::size_t backlog_mid = 0;  ///< GETs due but unsent at mid-window
  std::size_t backlog_end = 0;  ///< GETs due but unsent at window end
  SampleCheck check;
};

/// Run `mix.generators` open-loop threads against `server` from `start`
/// for `seconds`: GET j of generator g is due at start + (g + j·G)/rate.
/// Every `sample_every`-th GET of a generator is checked after it is timed.
ReadWindow run_read_window(const serve::ConcurrentServer& server,
                           const KeySpace& keys, const ReadMix& mix,
                           std::uint64_t seed, Clock::time_point start,
                           double seconds, std::size_t sample_every);

/// Add `from`'s counts and samples to `into`.
void append(ReadWindow& into, const ReadWindow& from);

/// Closed-loop saturated throughput of the same request streams from
/// `threads` client threads. Returns GETs per second; non-200s are added
/// to `failed`.
double run_capacity(const serve::ConcurrentServer& server, const KeySpace& keys,
                    std::size_t threads, std::uint64_t seed, double seconds,
                    std::size_t& attempted, std::size_t& failed);

/// Hit and request totals over both cache layers.
struct HitCount {
  std::size_t requests = 0;
  std::size_t hits = 0;
};
HitCount hit_count(const serve::ConcurrentServer& server);

/// A writer that retitles a seeded member `hz` times per second until
/// stopped — the epoch churn visitors of browse_hot read through.
class BackgroundAuthor {
 public:
  BackgroundAuthor(World& world, double hz, std::uint64_t seed);
  ~BackgroundAuthor();
  BackgroundAuthor(const BackgroundAuthor&) = delete;
  BackgroundAuthor& operator=(const BackgroundAuthor&) = delete;

  void stop();

  std::size_t writes = 0;       ///< mutation calls made
  std::size_t failed = 0;       ///< mutation calls that threw
  HitCount post_epoch;          ///< first 50 ms after each publish

 private:
  void loop(double hz, std::uint64_t seed);
  World* world_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace navbench
