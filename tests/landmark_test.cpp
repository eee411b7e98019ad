// Landmark synthesis: scorer determinism, pipeline integration, and the
// byte-identity contract.
//
// Contracts pinned here:
//   1. score_landmarks is a deterministic pure function: popularity and
//      centrality blend with stable tie-breaks, per-profile slices rank
//      independently (with global fallback), top_k truncates.
//   2. THE tentpole: enable_landmarks authors `links-landmarks[-<p>].xml`
//      through the normal build graph, so the incremental site — landmark
//      linkbases included — is byte-identical to the from-scratch
//      full-build oracle, and every profile's overlay serving matches
//      its profile oracle.
//   3. Landmarks are first-class graph citizens: re-feeding identical
//      traffic cuts off (no re-author), structural edits propagate into
//      re-ranking, disable retires every artifact, and the name/path
//      namespace is policed against families and routes both ways.
//   4. Landmark artifacts ride snapshot replication unchanged.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/navigation_aspect.hpp"
#include "hypermedia/access.hpp"
#include "nav/landmarks.hpp"
#include "nav/pipeline.hpp"
#include "nav/profile.hpp"
#include "nav/route.hpp"
#include "obs/trace.hpp"
#include "oracle.hpp"
#include "repl/publisher.hpp"
#include "repl/replica.hpp"
#include "serve/concurrent_server.hpp"
#include "site/virtual_site.hpp"

namespace {

using navsep::ResolutionError;
using navsep::SemanticError;
using navsep::hypermedia::AccessStructureKind;
namespace core = navsep::core;
namespace nav = navsep::nav;
namespace obs = navsep::obs;
namespace repl = navsep::repl;
namespace serve = navsep::serve;
namespace site = navsep::site;
using nav::LandmarkOptions;
using nav::LandmarkScore;
using navsep::testing::expect_profile_matches_oracle;
using navsep::testing::expect_sites_identical;
using navsep::testing::full_build_oracle;

std::unique_ptr<nav::Engine> synthetic_engine(std::size_t paintings,
                                              std::uint64_t seed = 11) {
  return nav::SitePipeline()
      .conceptual(navsep::museum::SyntheticSpec{.painters = 3,
                                                .paintings_per_painter =
                                                    paintings,
                                                .movements = 2,
                                                .seed = seed})
      .access(AccessStructureKind::IndexedGuidedTour)
      .contexts({"ByAuthor", "ByMovement"})
      .weave()
      .serve();
}

/// Traffic with `views` hits on each (page, profile) tuple; "" profile
/// rows feed the global table only.
obs::TraceAggregate traffic_of(
    const std::vector<std::pair<std::string, std::string>>& hits) {
  obs::TraceAggregate traffic;
  for (const auto& [page, profile] : hits) {
    ++traffic.events;
    ++traffic.page_views[page];
    if (!profile.empty()) ++traffic.profile_page_views[{profile, page}];
  }
  return traffic;
}

/// The engine's current (post-attach) registration of profile `name`.
nav::Profile registered(const nav::EngineInternals& in,
                        const std::string& name) {
  for (const nav::Profile& p : in.profiles()) {
    if (p.name == name) return p;
  }
  ADD_FAILURE() << "profile not registered: " << name;
  return {};
}

// --- scorer semantics ---------------------------------------------------------

TEST(LandmarkScore, BlendsPopularityAndCentralityDeterministically) {
  // A tiny hand-built arc universe: hub has degree 4, spokes degree 1-2.
  std::vector<core::NavArc> arcs;
  auto arc = [&](const char* from, const char* to) {
    core::NavArc a;
    a.from = from;
    a.to = to;
    a.role = "nav:next";
    a.source = "links.xml";
    arcs.push_back(std::move(a));
  };
  arc("hub", "a");
  arc("hub", "b");
  arc("a", "hub");
  arc("c", "hub");
  arc("b", "c");

  // "c" is the traffic magnet; "hub" wins on centrality.
  obs::TraceAggregate traffic = traffic_of({{core::default_href_for("c"), ""},
                                            {core::default_href_for("c"), ""},
                                            {core::default_href_for("a"), ""}});

  LandmarkOptions popularity_only{.top_k = 2,
                                  .popularity_weight = 1.0,
                                  .centrality_weight = 0.0};
  std::vector<LandmarkScore> by_views =
      nav::score_landmarks(traffic, arcs, popularity_only);
  ASSERT_EQ(by_views.size(), 2u);
  EXPECT_EQ(by_views[0].node_id, "c");
  EXPECT_EQ(by_views[0].views, 2u);
  EXPECT_EQ(by_views[1].node_id, "a");

  LandmarkOptions centrality_only{.top_k = 2,
                                  .popularity_weight = 0.0,
                                  .centrality_weight = 1.0};
  std::vector<LandmarkScore> by_degree =
      nav::score_landmarks(traffic, arcs, centrality_only);
  ASSERT_EQ(by_degree.size(), 2u);
  EXPECT_EQ(by_degree[0].node_id, "hub");
  EXPECT_EQ(by_degree[0].degree, 4u);

  // Equal-score candidates order by node id: zero traffic, equal weights
  // on nodes of equal degree.
  obs::TraceAggregate no_traffic;
  std::vector<LandmarkScore> tied = nav::score_landmarks(
      no_traffic, arcs, LandmarkOptions{.top_k = 8});
  for (std::size_t i = 1; i < tied.size(); ++i) {
    if (tied[i - 1].score == tied[i].score) {
      EXPECT_LT(tied[i - 1].node_id, tied[i].node_id);
    }
  }
}

TEST(LandmarkScore, ProfileSlicesRankIndependentlyWithGlobalFallback) {
  std::vector<core::NavArc> arcs;
  core::NavArc a;
  a.from = "x";
  a.to = "y";
  a.role = "nav:next";
  a.source = "links.xml";
  arcs.push_back(a);

  obs::TraceAggregate traffic =
      traffic_of({{core::default_href_for("x"), "curators"},
                  {core::default_href_for("y"), ""},
                  {core::default_href_for("y"), ""}});

  LandmarkOptions opts{.top_k = 1, .popularity_weight = 1.0,
                       .centrality_weight = 0.0};
  // Global traffic crowns y; the curators' slice crowns x; a profile
  // with no recorded traffic falls back to the global ranking.
  EXPECT_EQ(nav::score_landmarks(traffic, arcs, opts).front().node_id, "y");
  EXPECT_EQ(
      nav::score_landmarks(traffic, arcs, opts, "curators").front().node_id,
      "x");
  EXPECT_EQ(
      nav::score_landmarks(traffic, arcs, opts, "visitors").front().node_id,
      "y");
}

TEST(LandmarkScore, TokenCoversNameOptionsAndTrafficTables) {
  obs::TraceAggregate traffic = traffic_of({{"a.html", ""}, {"b.html", "p"}});
  const LandmarkOptions opts{.top_k = 3};
  const std::uint64_t base = nav::landmark_token("landmarks", opts, traffic);
  EXPECT_EQ(base, nav::landmark_token("landmarks", opts, traffic));
  EXPECT_NE(base, nav::landmark_token("landmarks-p", opts, traffic));
  EXPECT_NE(base,
            nav::landmark_token("landmarks", LandmarkOptions{.top_k = 4},
                                traffic));
  obs::TraceAggregate more = traffic;
  ++more.page_views["a.html"];
  EXPECT_NE(base, nav::landmark_token("landmarks", opts, more));
}

// --- pipeline integration -----------------------------------------------------

/// Traffic naming real synthetic-site pages so ranking is meaningful.
obs::TraceAggregate engine_traffic(const nav::Engine& engine) {
  std::vector<std::string> pages = navsep::testing::html_pages(engine);
  std::sort(pages.begin(), pages.end());
  obs::TraceAggregate traffic;
  std::uint64_t weight = pages.size();
  for (const std::string& page : pages) {
    traffic.page_views[page] = weight;
    traffic.events += weight;
    // Alternate pages are hot for one of two audiences.
    const std::string profile = (weight % 2 == 0) ? "even" : "odd";
    traffic.profile_page_views[{profile, page}] = weight;
    --weight;
  }
  return traffic;
}

TEST(LandmarkPipeline, SiteIsByteIdenticalToFullBuildOracle) {
  auto engine = synthetic_engine(3);
  nav::EngineInternals& in = engine->internals();
  (void)in.enable_landmarks(engine_traffic(*engine),
                            LandmarkOptions{.top_k = 4});

  ASSERT_EQ(in.landmark_families(), std::vector<std::string>{"landmarks"});
  const std::string path = site::context_linkbase_path("landmarks");
  ASSERT_NE(engine->site().get(path), nullptr)
      << "landmark linkbase must be an authored artifact";
  expect_sites_identical(engine->site(), full_build_oracle(*engine));

  // And again from scratch: rebuild() must reproduce the same bytes.
  in.rebuild();
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(LandmarkPipeline, ProfilesAutoAttachAndServeTheirOracleBytes) {
  auto engine = synthetic_engine(2);
  nav::EngineInternals& in = engine->internals();
  auto server = engine->open_concurrent();

  in.register_profile({"even", {"ByAuthor"}});
  (void)in.enable_landmarks(engine_traffic(*engine),
                            LandmarkOptions{.top_k = 3, .per_profile = true});
  // Registration after enabling synthesizes that profile's family too.
  in.register_profile({"odd", {"ByMovement"}});

  const std::vector<std::string> families = in.landmark_families();
  EXPECT_EQ(families, (std::vector<std::string>{
                          "landmarks", "landmarks-even", "landmarks-odd"}));

  const nav::Profile even = registered(in, "even");
  const nav::Profile odd = registered(in, "odd");
  EXPECT_NE(std::find(even.families.begin(), even.families.end(),
                      "landmarks"),
            even.families.end());
  EXPECT_NE(std::find(even.families.begin(), even.families.end(),
                      "landmarks-even"),
            even.families.end());
  EXPECT_EQ(std::find(odd.families.begin(), odd.families.end(),
                      "landmarks-even"),
            odd.families.end());

  expect_profile_matches_oracle(*engine, *server, even);
  expect_profile_matches_oracle(*engine, *server, odd);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(LandmarkPipeline, IdenticalTrafficCutsOffAndEditsPropagate) {
  auto engine = synthetic_engine(2);
  nav::EngineInternals& in = engine->internals();
  const obs::TraceAggregate traffic = engine_traffic(*engine);

  (void)in.enable_landmarks(traffic, LandmarkOptions{.top_k = 3});
  const std::string path = site::context_linkbase_path("landmarks");
  const std::string before = *engine->site().get(path);

  // Same traffic, same options: the landmark token is unchanged, so the
  // program node cuts off and nothing re-authors.
  const nav::RebuildReport again =
      in.enable_landmarks(traffic, LandmarkOptions{.top_k = 3});
  EXPECT_EQ(again.linkbases_reauthored, 0u);
  EXPECT_EQ(again.pages_rewoven, 0u);

  // A structural edit changes the scorer's arc input: the landmark
  // linkbase re-ranks through its dependency edges, and the site still
  // matches the oracle (which re-ranks the same way).
  (void)in.retitle_node(engine->structure().members().front().node_id,
                        "Spotlight exhibit");
  expect_sites_identical(engine->site(), full_build_oracle(*engine));

  // Hotter traffic on the last-ranked page re-orders the tour.
  obs::TraceAggregate skewed = traffic;
  std::vector<std::string> pages = navsep::testing::html_pages(*engine);
  std::sort(pages.begin(), pages.end());
  skewed.page_views[pages.back()] += 1000;
  const nav::RebuildReport reranked =
      in.enable_landmarks(skewed, LandmarkOptions{.top_k = 3});
  EXPECT_GE(reranked.linkbases_reauthored, 1u);
  EXPECT_NE(*engine->site().get(path), before);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(LandmarkPipeline, DisableRetiresArtifactsAndDetachesProfiles) {
  auto engine = synthetic_engine(2);
  nav::EngineInternals& in = engine->internals();
  in.register_profile({"even", {"ByAuthor"}});
  (void)in.enable_landmarks(engine_traffic(*engine),
                            LandmarkOptions{.top_k = 2, .per_profile = true});
  const std::string base_path = site::context_linkbase_path("landmarks");
  const std::string even_path = site::context_linkbase_path("landmarks-even");
  ASSERT_NE(engine->site().get(base_path), nullptr);
  ASSERT_NE(engine->site().get(even_path), nullptr);

  (void)in.disable_landmarks();
  EXPECT_TRUE(in.landmark_families().empty());
  EXPECT_EQ(engine->site().get(base_path), nullptr);
  EXPECT_EQ(engine->site().get(even_path), nullptr);
  EXPECT_EQ(registered(in, "even").families,
            (std::vector<std::string>{"ByAuthor"}));
  expect_sites_identical(engine->site(), full_build_oracle(*engine));

  // Idempotent: a second disable is a no-op, not an error.
  const nav::RebuildReport noop = in.disable_landmarks();
  EXPECT_EQ(noop.nodes_rebuilt, 0u);
}

TEST(LandmarkPipeline, NamespaceIsPolicedBothWays) {
  auto engine = synthetic_engine(2);
  nav::EngineInternals& in = engine->internals();

  // Landmarks enabled first: a route may not take a landmark name.
  (void)in.enable_landmarks(engine_traffic(*engine), LandmarkOptions{});
  EXPECT_THROW((void)in.register_route(
                   {"landmarks", "next*", nav::RouteCompile::Aot}),
               SemanticError);
  (void)in.disable_landmarks();

  // Route registered first: enabling landmarks must refuse the clash.
  (void)in.register_route({"landmarks", "next*", nav::RouteCompile::Aot});
  EXPECT_THROW(
      (void)in.enable_landmarks(engine_traffic(*engine), LandmarkOptions{}),
      SemanticError);
  (void)in.remove_route("landmarks");

  // Unknown-name accessors are diagnosable.
  EXPECT_THROW((void)in.landmark_family("landmarks"), ResolutionError);
  EXPECT_THROW((void)in.landmark_picks("landmarks"), ResolutionError);
}

TEST(LandmarkPipeline, RefusedEnableLeavesLandmarksOff) {
  auto engine = synthetic_engine(2);
  nav::EngineInternals& in = engine->internals();
  (void)in.register_route({"landmarks", "next*", nav::RouteCompile::Aot});
  EXPECT_THROW(
      (void)in.enable_landmarks(engine_traffic(*engine), LandmarkOptions{}),
      SemanticError);
  (void)in.remove_route("landmarks");

  // The refused enable must not linger as a half-enabled synthesis that
  // the next profile registration silently switches on.
  in.register_profile({"p", {}});
  EXPECT_TRUE(in.landmark_families().empty());
  EXPECT_TRUE(registered(in, "p").families.empty());
  EXPECT_EQ(engine->site().get(site::context_linkbase_path("landmarks")),
            nullptr);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(LandmarkPipeline, RefusedProfileLeavesNoTrace) {
  auto engine = synthetic_engine(2);
  nav::EngineInternals& in = engine->internals();
  (void)in.enable_landmarks(engine_traffic(*engine),
                            LandmarkOptions{.per_profile = true});

  // A ':' cannot ride a per-profile family name: the profile is refused
  // whole, and later registrations are not poisoned by it.
  EXPECT_THROW(in.register_profile({"a:b", {}}), SemanticError);
  for (const nav::Profile& p : in.profiles()) EXPECT_NE(p.name, "a:b");
  EXPECT_NO_THROW(in.register_profile({"ok", {}}));

  // Names map to paths case-insensitively: "landmarks-OK" would author
  // the linkbase "landmarks-ok" already owns.
  EXPECT_THROW(in.register_profile({"OK", {}}), SemanticError);
  for (const nav::Profile& p : in.profiles()) EXPECT_NE(p.name, "OK");

  EXPECT_EQ(in.landmark_families(),
            (std::vector<std::string>{"landmarks", "landmarks-ok"}));
  EXPECT_EQ(registered(in, "ok").families,
            (std::vector<std::string>{"landmarks", "landmarks-ok"}));
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(LandmarkPipeline, TangledModeRefusesLandmarks) {
  auto engine = nav::SitePipeline()
                    .conceptual(navsep::museum::SyntheticSpec{
                        .painters = 2, .paintings_per_painter = 2,
                        .movements = 2, .seed = 5})
                    .access(AccessStructureKind::Index)
                    .tangled()
                    .serve();
  EXPECT_THROW((void)engine->internals().enable_landmarks(
                   obs::TraceAggregate{}, LandmarkOptions{}),
               SemanticError);
}

TEST(LandmarkPipeline, BatchedEnableCoalescesIntoOneEpoch) {
  auto engine = synthetic_engine(2);
  nav::EngineInternals& in = engine->internals();
  const std::uint64_t before = in.snapshots().epoch();

  in.begin_batch();
  (void)in.enable_landmarks(engine_traffic(*engine),
                            LandmarkOptions{.top_k = 3});
  (void)in.retitle_node(engine->structure().members().front().node_id,
                        "Batched spotlight");
  const nav::RebuildReport report = in.commit_batch();
  EXPECT_EQ(report.epochs_published, 1u);
  EXPECT_EQ(report.edits_coalesced, 2u);
  EXPECT_EQ(in.snapshots().epoch(), before + 1);
  expect_sites_identical(engine->site(), full_build_oracle(*engine));
}

TEST(LandmarkPipeline, LandmarkArtifactsRideReplication) {
  auto engine = synthetic_engine(2);
  nav::EngineInternals& in = engine->internals();
  auto publisher = engine->open_publisher(repl::Endpoint::tcp("127.0.0.1", 0));
  repl::Replica replica = repl::Replica::connect(publisher->endpoint());
  replica.start();

  in.register_profile({"even", {"ByAuthor"}});
  (void)in.enable_landmarks(engine_traffic(*engine),
                            LandmarkOptions{.top_k = 3, .per_profile = true});

  const std::uint64_t target = in.snapshots().epoch();
  ASSERT_TRUE(replica.wait_for_epoch(target, std::chrono::seconds(30)))
      << replica.error();

  // A server over the replica's store serves the origin's oracle bytes,
  // landmark overlays included — nothing landmark-specific crossed the
  // wire beyond ordinary linkbase artifacts.
  serve::ConcurrentServer server(replica.store(), 2);
  const nav::Profile even = registered(in, "even");
  const std::map<std::string, std::string> oracle =
      navsep::testing::profile_oracle(*engine, even);
  for (const auto& [path, bytes] : oracle) {
    site::Response r = server.get(path, even.name);
    ASSERT_TRUE(r.ok()) << path;
    EXPECT_EQ(*r.body, bytes) << path;
  }
}

}  // namespace
