#include "traffic.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace navbench {

namespace {

/// How long a generator may run past its window draining a backlog
/// before the GETs it has not sent count as failed.
constexpr auto kDrainGrace = std::chrono::seconds(2);

void check_sample(const KeySpace& keys, Key key,
                  const navsep::site::Response& served,
                  const std::shared_ptr<const serve::SiteSnapshot>& before,
                  const std::shared_ptr<const serve::SiteSnapshot>& after,
                  SampleCheck& out) {
  ++out.checked;
  const std::string& path = keys.path(key);
  const std::string& layer = keys.layer(key);
  const auto matches = [&](const serve::SiteSnapshot& snap) {
    const auto t0 = Clock::now();
    const navsep::site::Response r = render(snap, path, layer);
    const double us = static_cast<double>(ns_between(t0, Clock::now())) / 1e3;
    (layer.empty() ? out.respond_us : out.respond_as_us).push_back(us);
    return served.body != nullptr && r.body != nullptr &&
           *r.body == *served.body;
  };
  if (matches(*before)) return;
  if (after != before && matches(*after)) return;
  ++out.mismatched;
}

void generate(const serve::ConcurrentServer& server, const KeySpace& keys,
              const ReadMix& mix, std::uint64_t seed, std::size_t g,
              Clock::time_point start, double seconds,
              std::size_t sample_every, ReadWindow& log) {
  const std::size_t gens = mix.generators;
  const double period_ns = 1e9 / mix.rate_rps;
  const double window_ns = seconds * 1e9;
  const double mid_ns = window_ns / 2;
  const auto give_up = start + std::chrono::nanoseconds(
                                   static_cast<std::int64_t>(window_ns)) +
                       kDrainGrace;
  // Every buffer is sized and touched before the window opens, so that
  // growing one never stalls a timed GET.
  const std::size_t expected = static_cast<std::size_t>(
      window_ns / period_ns / static_cast<double>(gens)) + 2;
  log.latency_us.assign(expected, 0.0f);
  log.late_us.assign(expected, 0.0f);
  log.base_service_us.assign(expected, 0.0f);
  log.overlay_service_us.assign(expected, 0.0f);
  std::size_t sent = 0, base_sent = 0, overlay_sent = 0;
  Rng rng(seed, 1000 + g);

  for (std::size_t j = 0;; ++j) {
    const double due_ns = (static_cast<double>(g) +
                           static_cast<double>(j * gens)) * period_ns;
    if (due_ns >= window_ns) break;
    ++log.attempted;
    const auto due = start + std::chrono::nanoseconds(
                                 static_cast<std::int64_t>(due_ns));
    const Key key = keys.draw(rng);
    if (Clock::now() > give_up) {
      ++log.failed;
      ++log.slo_misses;
      ++log.backlog_end;
      if (due_ns <= mid_ns) ++log.backlog_mid;
      continue;
    }
    wait_until(due);
    const bool sampled = j % sample_every == 0;
    std::shared_ptr<const serve::SiteSnapshot> before;
    const auto t_acq = Clock::now();
    if (sampled) before = server.snapshot();
    const auto t_start = Clock::now();
    const navsep::site::Response response = fetch(server, keys, key);
    const auto t_end = Clock::now();

    const double late_ns = static_cast<double>(ns_between(due, t_acq));
    const double service_ns = static_cast<double>(ns_between(t_start, t_end));
    const double latency_us = static_cast<double>(ns_between(due, t_end)) / 1e3;
    log.latency_us[sent] = static_cast<float>(latency_us);
    log.late_us[sent] = static_cast<float>(late_ns / 1e3);
    ++sent;
    if (keys.layer(key).empty()) {
      log.base_service_us[base_sent++] = static_cast<float>(service_ns / 1e3);
    } else {
      log.overlay_service_us[overlay_sent++] =
          static_cast<float>(service_ns / 1e3);
    }
    const double start_ns = due_ns + late_ns;
    if (due_ns <= mid_ns && start_ns > mid_ns) ++log.backlog_mid;
    if (start_ns > window_ns) ++log.backlog_end;
    const bool ok = response.ok();
    if (!ok) ++log.failed;
    if (!ok || latency_us > mix.slo_us) ++log.slo_misses;
    if (sampled) {
      log.check.acquire_ns.push_back(
          static_cast<double>(ns_between(t_acq, t_start)));
      check_sample(keys, key, response, before, server.snapshot(), log.check);
    }
  }
  log.latency_us.resize(sent);
  log.late_us.resize(sent);
  log.base_service_us.resize(base_sent);
  log.overlay_service_us.resize(overlay_sent);
}

}  // namespace

ReadWindow run_read_window(const serve::ConcurrentServer& server,
                           const KeySpace& keys, const ReadMix& mix,
                           std::uint64_t seed, Clock::time_point start,
                           double seconds, std::size_t sample_every) {
  std::vector<ReadWindow> logs(mix.generators);
  {
    std::vector<std::jthread> threads;
    for (std::size_t g = 0; g < mix.generators; ++g) {
      threads.emplace_back([&, g] {
        generate(server, keys, mix, seed, g, start, seconds,
                 std::max<std::size_t>(1, sample_every), logs[g]);
      });
    }
  }
  ReadWindow out;
  for (const ReadWindow& log : logs) append(out, log);
  out.seconds = seconds;
  return out;
}

void append(ReadWindow& into, const ReadWindow& from) {
  const auto cat = [](auto& to, const auto& v) {
    to.insert(to.end(), v.begin(), v.end());
  };
  into.seconds += from.seconds;
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.slo_misses += from.slo_misses;
  into.backlog_mid += from.backlog_mid;
  into.backlog_end += from.backlog_end;
  cat(into.latency_us, from.latency_us);
  cat(into.late_us, from.late_us);
  cat(into.base_service_us, from.base_service_us);
  cat(into.overlay_service_us, from.overlay_service_us);
  into.check.checked += from.check.checked;
  into.check.mismatched += from.check.mismatched;
  cat(into.check.respond_us, from.check.respond_us);
  cat(into.check.respond_as_us, from.check.respond_as_us);
  cat(into.check.acquire_ns, from.check.acquire_ns);
}

double run_capacity(const serve::ConcurrentServer& server, const KeySpace& keys,
                    std::size_t threads, std::uint64_t seed, double seconds,
                    std::size_t& attempted, std::size_t& failed) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::size_t> done(threads, 0);
  std::vector<std::size_t> bad(threads, 0);
  std::vector<double> elapsed(threads, 0);
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        Rng rng(seed, 1000 + t);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const auto t0 = Clock::now();
        std::size_t n = 0;
        std::size_t errors = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          for (int i = 0; i < 32; ++i) {
            if (!fetch(server, keys, keys.draw(rng)).ok()) ++errors;
          }
          n += 32;
        }
        elapsed[t] = std::chrono::duration<double>(Clock::now() - t0).count();
        done[t] = n;
        bad[t] = errors;
      });
    }
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_relaxed);
  }
  std::size_t total = 0;
  double longest = 0;
  for (std::size_t t = 0; t < threads; ++t) {
    total += done[t];
    failed += bad[t];
    longest = std::max(longest, elapsed[t]);
  }
  attempted += total;
  return ratio(static_cast<double>(total), longest);
}

HitCount hit_count(const serve::ConcurrentServer& server) {
  const serve::ConcurrentServer::UnifiedStats s = server.unified_stats();
  return {s.base.requests + s.overlay.requests, s.base.hits + s.overlay.hits};
}

BackgroundAuthor::BackgroundAuthor(World& world, double hz, std::uint64_t seed)
    : world_(&world) {
  thread_ = std::thread([this, hz, seed] { loop(hz, seed); });
}

BackgroundAuthor::~BackgroundAuthor() { stop(); }

void BackgroundAuthor::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void BackgroundAuthor::loop(double hz, std::uint64_t seed) {
  Rng rng(seed, 0xb9);
  const auto period = std::chrono::duration<double>(1.0 / hz);
  const auto t0 = Clock::now();
  const auto members = world_->engine->structure().members();
  for (std::size_t i = 1; !stop_.load(); ++i) {
    const auto due =
        t0 + std::chrono::duration_cast<Clock::duration>(period * i);
    while (Clock::now() < due && !stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (stop_.load()) break;
    const auto& member = members[rng.below(members.size())];
    ++writes;
    try {
      (void)world_->engine->internals().retitle_node(
          member.node_id,
          "bg " + std::to_string(seed) + "." + std::to_string(i));
    } catch (const std::exception&) {
      ++failed;
      continue;
    }
    const HitCount h0 = hit_count(*world_->server);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const HitCount h1 = hit_count(*world_->server);
    post_epoch.requests += h1.requests - h0.requests;
    post_epoch.hits += h1.hits - h0.hits;
  }
}

}  // namespace navbench
