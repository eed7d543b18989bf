#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "simweb/domain.h"
#include "simweb/domain_profile.h"
#include "simweb/filler_lanes.h"
#include "simweb/simulated_web.h"
#include "simweb/url.h"
#include "simweb/web_config.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/stats.h"

namespace webevo::simweb {
namespace {

WebConfig SmallConfig(uint64_t seed = 7) {
  WebConfig c;
  c.seed = seed;
  c.sites_per_domain = {4, 3, 2, 2};
  c.min_site_size = 20;
  c.max_site_size = 60;
  return c;
}

// ------------------------------------------------------------------- Url

TEST(UrlTest, EqualityAndToString) {
  Url a{1, 2, 3};
  Url b{1, 2, 3};
  Url c{1, 2, 4};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.ToString(), "site1/p2_v3");
}

TEST(UrlTest, HashDistinguishesFields) {
  UrlHash h;
  EXPECT_NE(h(Url{1, 2, 3}), h(Url{3, 2, 1}));
  EXPECT_EQ(h(Url{1, 2, 3}), h(Url{1, 2, 3}));
}

// ----------------------------------------------------------- WebConfig

TEST(WebConfigTest, DefaultIsValid) {
  EXPECT_TRUE(WebConfig().Validate().ok());
}

TEST(WebConfigTest, RejectsBadValues) {
  WebConfig c;
  c.sites_per_domain = {0, 0, 0, 0};
  EXPECT_FALSE(c.Validate().ok());

  c = WebConfig();
  c.min_site_size = 10;
  c.max_site_size = 5;
  EXPECT_FALSE(c.Validate().ok());

  c = WebConfig();
  c.tree_branching = 0;
  EXPECT_FALSE(c.Validate().ok());

  c = WebConfig();
  c.cross_site_link_prob = 1.5;
  EXPECT_FALSE(c.Validate().ok());

  c = WebConfig();
  c.cross_links_per_page = -1;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(WebConfigTest, ScaledKeepsAtLeastOneSite) {
  WebConfig c = WebConfig().Scaled(0.001);
  for (int n : c.sites_per_domain) EXPECT_GE(n, 1);
}

TEST(WebConfigTest, ScaledPastIntRangeFailsValidate) {
  // Products past INT_MAX saturate instead of wrapping to a tiny web.
  for (double factor : {1e8, 1e300}) {
    SCOPED_TRACE(factor);
    EXPECT_FALSE(WebConfig().Scaled(factor).Validate().ok());
  }
  EXPECT_FALSE(WebConfig().Scaled(1e6).Validate().ok());  // > site cap
}

TEST(WebConfigDeathTest, ConstructorRejectsInvalidConfigInEveryBuild) {
  WebConfig c = SmallConfig();
  c.sites_per_domain = {0, 0, 0, 0};
  EXPECT_DEATH(SimulatedWeb web(c), "no sites configured");
}

// -------------------------------------------------------- DomainProfile

TEST(DomainProfileTest, CalibratedProfilesExistForAllDomains) {
  for (Domain d : kAllDomains) {
    const DomainProfile& p = DomainProfile::Calibrated(d);
    EXPECT_FALSE(p.change_interval_mixture().empty());
    EXPECT_FALSE(p.lifespan_mixture().empty());
  }
}

TEST(DomainProfileTest, ComHasMostDailyChangers) {
  // Fig 2b: > 40% of com pages changed every day; < 10% elsewhere (for
  // the *measured*, length-biased population — birth mass may sit a
  // touch higher, so the non-com bound here is 0.12).
  double com = DomainProfile::Calibrated(Domain::kCom)
                   .IntervalMassBetween(0.0, 1.0);
  EXPECT_GT(com, 0.40);
  for (Domain d : {Domain::kEdu, Domain::kNetOrg, Domain::kGov}) {
    EXPECT_LT(DomainProfile::Calibrated(d).IntervalMassBetween(0.0, 1.0),
              0.12)
        << DomainName(d);
  }
}

TEST(DomainProfileTest, EduGovMostlyStatic) {
  // Fig 2b: > 50% of edu and gov pages unchanged over 4 months. The
  // *birth* mass here is a bit lower; the standing population measured
  // by the study is length-biased toward these long-interval pages and
  // exceeds 50% (asserted end-to-end by the experiment tests).
  for (Domain d : {Domain::kEdu, Domain::kGov}) {
    EXPECT_GE(DomainProfile::Calibrated(d).IntervalMassBetween(120.0, 1e9),
              0.45)
        << DomainName(d);
  }
}

TEST(DomainProfileTest, SamplesRespectMixtureSupport) {
  Rng rng(3);
  const DomainProfile& p = DomainProfile::Calibrated(Domain::kCom);
  for (int i = 0; i < 2000; ++i) {
    double interval = p.SampleChangeInterval(rng);
    EXPECT_GE(interval, 0.02);
    EXPECT_LE(interval, 3000.0);
    double life = p.SampleLifespan(rng);
    EXPECT_GE(life, 1.0);
    EXPECT_LE(life, 1500.0);
  }
}

TEST(DomainProfileTest, SampledBucketFractionsMatchWeights) {
  Rng rng(4);
  const DomainProfile& p = DomainProfile::Calibrated(Domain::kCom);
  int daily = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    daily += p.SampleChangeInterval(rng) <= 1.0;
  }
  EXPECT_NEAR(static_cast<double>(daily) / n, 0.50, 0.02);
}

TEST(DomainProfileTest, IntervalMassIsAProbability) {
  const DomainProfile& p = DomainProfile::Calibrated(Domain::kGov);
  double total = p.IntervalMassBetween(0.0, 1e12);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GE(p.IntervalMassBetween(1.0, 7.0), 0.0);
}

// --------------------------------------------------------- SimulatedWeb

TEST(SimulatedWebTest, ConstructionMatchesConfig) {
  WebConfig c = SmallConfig();
  SimulatedWeb web(c);
  EXPECT_EQ(web.num_sites(), 11u);
  int by_domain[kNumDomains] = {};
  uint64_t slots = 0;
  for (uint32_t s = 0; s < web.num_sites(); ++s) {
    ++by_domain[static_cast<int>(web.site_domain(s))];
    EXPECT_GE(web.site_size(s), c.min_site_size);
    EXPECT_LE(web.site_size(s), c.max_site_size);
    slots += web.site_size(s);
  }
  EXPECT_EQ(by_domain[0], 4);
  EXPECT_EQ(by_domain[1], 3);
  EXPECT_EQ(by_domain[2], 2);
  EXPECT_EQ(by_domain[3], 2);
  EXPECT_EQ(web.TotalSlots(), slots);
}

TEST(SimulatedWebTest, DeterministicAcrossInstances) {
  SimulatedWeb a(SmallConfig(11));
  SimulatedWeb b(SmallConfig(11));
  auto ra = a.Fetch(a.RootUrl(0), 0.5);
  auto rb = b.Fetch(b.RootUrl(0), 0.5);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->checksum, rb->checksum);
  EXPECT_EQ(ra->links.size(), rb->links.size());
}

TEST(SimulatedWebTest, FetchRootSucceeds) {
  SimulatedWeb web(SmallConfig());
  auto result = web.Fetch(web.RootUrl(0), 0.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->url, web.RootUrl(0));
  EXPECT_FALSE(result->links.empty());
}

TEST(SimulatedWebTest, FetchBadSiteIsNotFound) {
  SimulatedWeb web(SmallConfig());
  auto result = web.Fetch(Url{999, 0, 0}, 0.0);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(SimulatedWebTest, FetchRejectsTimeTravel) {
  SimulatedWeb web(SmallConfig());
  ASSERT_TRUE(web.Fetch(web.RootUrl(0), 10.0).ok());
  auto result = web.Fetch(web.RootUrl(0), 5.0);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SimulatedWebTest, ChecksumChangesExactlyWithVersion) {
  SimulatedWeb web(SmallConfig());
  Url root = web.RootUrl(0);
  auto first = web.Fetch(root, 0.0);
  ASSERT_TRUE(first.ok());
  // Find a time where the version differs.
  for (double t = 5.0; t <= 400.0; t += 5.0) {
    auto next = web.Fetch(root, t);
    ASSERT_TRUE(next.ok());
    if (next->version != first->version) {
      EXPECT_FALSE(next->checksum == first->checksum);
      return;
    }
    EXPECT_EQ(next->checksum, first->checksum);
  }
  GTEST_SKIP() << "root never changed in 400 days (rare seed)";
}

TEST(SimulatedWebTest, ChecksumMatchesBody) {
  // Fetch streams the body into its digest without building it; the
  // digest must still be ChecksumOf(PageBody()) at every filler size,
  // including sizes that cut the last 8-byte filler word.
  for (uint32_t bytes : {0u, 1u, 7u, 8u, 9u, 4096u, 16384u, 16387u}) {
    SCOPED_TRACE(bytes);
    WebConfig c = SmallConfig();
    c.page_body_bytes = bytes;
    SimulatedWeb web(c);
    auto result = web.Fetch(web.RootUrl(1), 0.0);
    ASSERT_TRUE(result.ok());
    const std::string body = web.PageBody(result->page, result->version);
    EXPECT_EQ(result->checksum, ChecksumOf(body));
    std::string header = "<html><head><title>page ";
    header += std::to_string(result->page);
    header += "</title></head><body>revision ";
    header += std::to_string(result->version);
    header += " token ";
    header += std::to_string(HashCombine(result->page, result->version));
    const std::string trailer = "</body></html>";
    ASSERT_EQ(body.size(), header.size() + bytes + trailer.size());
    EXPECT_EQ(body.substr(0, header.size()), header);
    EXPECT_EQ(body.substr(body.size() - trailer.size()), trailer);
  }
}

TEST(SimulatedWebTest, PageBodyGoldenChecksums) {
  // Pinned bytes: checkpoints, published views and perf fingerprints
  // all hash these checksums, so the body must never drift.
  struct Golden {
    uint32_t bytes;
    std::size_t size;
    uint64_t lo;
    uint64_t hi;
  };
  constexpr Golden kGolden[] = {
      {0, 108, 0x1731b62d40e8d6f5ULL, 0xfcd84ce604912d58ULL},
      {16384, 16492, 0xecee21b10b29f94bULL, 0xade22ae04cbb280aULL},
      {16387, 16495, 0xa66b9a97fd5b2f64ULL, 0xec71208df624d54fULL},
  };
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(g.bytes);
    WebConfig c = SmallConfig();
    c.page_body_bytes = g.bytes;
    SimulatedWeb web(c);
    const std::string body = web.PageBody(MakePageId(1, 2, 0), 3);
    EXPECT_EQ(body.size(), g.size);
    const Checksum128 sum = ChecksumOf(body);
    EXPECT_EQ(sum.lo, g.lo);
    EXPECT_EQ(sum.hi, g.hi);
  }
}

TEST(SimulatedWebTest, MirrorChecksumIsLeaderBodyDigest) {
  WebConfig c = SmallConfig();
  c.page_body_bytes = 16387;
  c.adv_mirror_group_size = 3;  // sites {0,1,2} form one group
  c.adv_mirror_groups = 1;
  SimulatedWeb web(c);
  ASSERT_TRUE(web.IsMirroredSite(1));
  const uint32_t leader = web.MirrorLeaderOf(1);
  ASSERT_NE(leader, 1u);
  auto result = web.Fetch(web.RootUrl(1), 1.0);
  ASSERT_TRUE(result.ok());
  // A mirror serves its leader's version-0 bytes for the same slot.
  const std::string leader_body = web.PageBody(MakePageId(leader, 0, 0), 0);
  EXPECT_EQ(result->checksum, ChecksumOf(leader_body));
}

TEST(SimulatedWebTest, FillerLaneKernelsMatchTheScalarFiller) {
  // Every lane kernel this CPU runs (the AVX-512 and the AVX2 build
  // both, where both run), against the scalar filler step on each lane:
  // word = HashCombine(word, offset), its 8 bytes into the digest. The
  // one test that sees a broken build the process did not select.
  Rng rng(17);
  FillerLanes start;
  for (std::size_t i = 0; i < FillerLanes::kLanes; ++i) {
    start.lo[i] = rng.Next();
    start.hi[i] = rng.Next();
    start.word[i] = rng.Next();
    start.offset[i] = rng.NextBounded(1000);
  }
  const std::vector<FillerLaneKernel> kernels = SupportedFillerLaneKernels();
  if (kernels.empty()) GTEST_SKIP() << "no lane kernel on this CPU";
  EXPECT_EQ(kernels.front(), SelectedFillerLaneKernel());
  for (std::size_t words : {0, 1, 2, 7, 2048}) {
    FillerLanes want = start;
    for (std::size_t i = 0; i < FillerLanes::kLanes; ++i) {
      ChecksumBuilder digest(Checksum128{want.lo[i], want.hi[i]});
      for (std::size_t w = 0; w < words; ++w) {
        want.word[i] = HashCombine(want.word[i], want.offset[i]);
        digest.AppendWord(want.word[i], 8);
        want.offset[i] += 8;
      }
      want.lo[i] = digest.Finish().lo;
      want.hi[i] = digest.Finish().hi;
    }
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      SCOPED_TRACE(testing::Message() << "kernel " << k << ", " << words
                                      << " words");
      FillerLanes got = start;
      kernels[k](got, words);
      for (std::size_t i = 0; i < FillerLanes::kLanes; ++i) {
        EXPECT_EQ(got.lo[i], want.lo[i]) << "lane " << i;
        EXPECT_EQ(got.hi[i], want.hi[i]) << "lane " << i;
        EXPECT_EQ(got.word[i], want.word[i]) << "lane " << i;
        EXPECT_EQ(got.offset[i], want.offset[i]) << "lane " << i;
      }
    }
  }
}

TEST(SimulatedWebTest, DigestBodiesMatchesOneBodyDigest) {
  // A pool of resolved fetches on a web with spider traps, a mirror farm
  // and domain migrations, over several days (changed versions, twin
  // resurrections, minted trap URLs), plus bodies of random pages at
  // random versions. Every slice of the pool digested together must
  // give each body's one-body digest, and the resolved fetches the
  // checksum Fetch gives on a twin web. Fails if a lane drops a byte,
  // if a lane group drops the last partial word, or if trap bodies
  // join the lanes as page bodies.
  for (uint32_t bytes : {0u, 1u, 7u, 8u, 9u, 4096u, 16384u, 16387u}) {
    SCOPED_TRACE(testing::Message() << bytes << "-byte bodies");
    WebConfig config = SmallConfig(11);
    config.page_body_bytes = bytes;
    config.adv_trap_site_prob = 0.3;
    config.adv_trap_links_per_fetch = 2;
    config.adv_mirror_group_size = 3;
    config.adv_mirror_groups = 1;
    config.adv_migration_prob = 0.5;
    config.adv_migration_mean_day = 2.0;
    SimulatedWeb web(config);
    SimulatedWeb twin(config);
    std::vector<FetchResult> pool;
    std::vector<Checksum128> fetched;
    std::vector<Url> frontier;
    for (uint32_t s = 0; s < web.num_sites(); ++s) {
      frontier.push_back(web.RootUrl(s));
    }
    for (int day = 0; day < 6 && pool.size() < 400; ++day) {
      std::vector<Url> next;
      for (const Url& url : frontier) {
        auto resolved = web.Resolve(url, day + 0.5);
        auto want = twin.Fetch(url, day + 0.5);
        ASSERT_EQ(resolved.status(), want.status()) << url.ToString();
        if (!resolved.ok()) continue;
        EXPECT_EQ(resolved->checksum, Checksum128{});
        pool.push_back(*resolved);
        fetched.push_back(want->checksum);
        next.push_back(url);
        for (const Url& link : resolved->links) next.push_back(link);
      }
      if (next.size() > 150) next.resize(150);
      frontier = std::move(next);
    }
    std::size_t traps = 0, aliases = 0, changed = 0;
    for (const FetchResult& r : pool) {
      traps += r.trap_body;
      aliases += !r.trap_body && r.body_page != r.page;
      changed += r.body_version > 0;
    }
    EXPECT_GT(traps, 0u);
    EXPECT_GT(aliases, 0u);
    EXPECT_GT(changed, 0u);
    // The resolved fetches in resolve order, digested in one call, give
    // what Fetch gave on the twin.
    std::vector<FetchResult> resolved = pool;
    std::vector<FetchResult*> all;
    for (FetchResult& r : resolved) all.push_back(&r);
    web.DigestBodies(all);
    for (std::size_t i = 0; i < resolved.size(); ++i) {
      ASSERT_EQ(resolved[i].checksum, fetched[i])
          << resolved[i].url.ToString();
    }
    Rng rng(bytes + 1);
    for (int k = 0; k < 60; ++k) {
      FetchResult r;
      r.body_page = rng.Next();
      r.body_version = k % 3 == 0 ? ~uint64_t{0} : rng.NextBounded(1000);
      pool.push_back(r);
    }
    rng.Shuffle(pool);  // traps and random bodies land inside lane groups
    std::vector<Checksum128> want(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      want[i] = pool[i].trap_body
                    ? ChecksumOf(SimulatedWeb::TrapBody(pool[i].url.site))
                    : ChecksumOf(web.PageBody(pool[i].body_page,
                                              pool[i].body_version));
    }
    for (std::size_t group : {1, 7, 8, 15, 16, 31, 32, 33, 100}) {
      SCOPED_TRACE(testing::Message() << "groups of " << group);
      std::vector<FetchResult> digested = pool;
      std::vector<FetchResult*> slice;
      for (std::size_t begin = 0; begin < digested.size(); begin += group) {
        slice.clear();
        for (std::size_t i = begin;
             i < std::min(begin + group, digested.size()); ++i) {
          slice.push_back(&digested[i]);
        }
        web.DigestBodies(slice);
      }
      for (std::size_t i = 0; i < digested.size(); ++i) {
        ASSERT_EQ(digested[i].checksum, want[i]) << "body " << i;
      }
    }
  }
}

TEST(SimulatedWebTest, LinksStayWithinValidSlots) {
  SimulatedWeb web(SmallConfig());
  auto result = web.Fetch(web.RootUrl(0), 0.0);
  ASSERT_TRUE(result.ok());
  for (const Url& link : result->links) {
    ASSERT_LT(link.site, web.num_sites());
    ASSERT_LT(link.slot, web.site_size(link.site));
  }
}

TEST(SimulatedWebTest, OwnSiteFetchIsTheFullFetchFiltered) {
  // Two copies of one web fetch the same URLs at the same times, one for
  // every link and one for the fetched site's links only. Each day
  // fetches the roots, then every link the full fetches return
  // (cross-site targets, trap and twin pages) and the previous day's
  // URLs, some of them dead by then.
  struct Case {
    const char* faults;
    const char* adversarial;
  };
  for (const Case& c : {Case{"none", "none"},
                        Case{"transient10", "spider-trap"},
                        Case{"none", "domain-migration"}}) {
    SCOPED_TRACE(std::string(c.faults) + "+" + c.adversarial);
    WebConfig config = SmallConfig(9);
    ASSERT_TRUE(ApplyFaultScenario(c.faults, &config).ok());
    ASSERT_TRUE(ApplyAdversarialScenario(c.adversarial, &config).ok());
    SimulatedWeb full(config);
    SimulatedWeb own(config);
    std::vector<Url> yesterday;
    int cross = 0, failed = 0, past_size = 0;
    for (int day = 0; day < 20; ++day) {
      const double t = day + 0.25;
      std::vector<Url> queue;
      std::unordered_set<Url, UrlHash> queued;
      const auto push = [&](const Url& url) {
        if (queued.insert(url).second) queue.push_back(url);
      };
      for (uint32_t s = 0; s < full.num_sites(); ++s) push(full.RootUrl(s));
      for (const Url& url : yesterday) push(url);
      std::size_t fetched = 0;
      for (; fetched < queue.size() && fetched < 400; ++fetched) {
        const Url url = queue[fetched];
        const auto want = full.Fetch(url, t);
        const auto got =
            own.Fetch(url, t, nullptr, SimulatedWeb::LinkScope::kOwnSite);
        ASSERT_EQ(got.status(), want.status()) << url.ToString();
        if (!want.ok()) {
          ++failed;
          continue;
        }
        past_size += url.slot >= full.site_size(url.site);
        EXPECT_EQ(got->url, want->url);
        EXPECT_EQ(got->page, want->page) << url.ToString();
        EXPECT_EQ(got->version, want->version) << url.ToString();
        EXPECT_EQ(got->checksum, want->checksum) << url.ToString();
        EXPECT_EQ(got->fetched_at, want->fetched_at) << url.ToString();
        EXPECT_EQ(got->last_modified, want->last_modified) << url.ToString();
        std::vector<Url> own_links;
        for (const Url& link : want->links) {
          if (link.site == url.site) {
            own_links.push_back(link);
          } else {
            ++cross;
          }
          push(link);
        }
        EXPECT_EQ(got->links, own_links) << url.ToString();
      }
      queue.resize(fetched);
      yesterday = std::move(queue);
    }
    EXPECT_GT(cross, 0);
    EXPECT_GT(failed, 0);
    if (std::string(c.adversarial) != "none") {
      EXPECT_GT(past_size, 0);
    }
    EXPECT_EQ(own.fetch_count(), full.fetch_count());
    EXPECT_EQ(own.not_found_count(), full.not_found_count());
    for (uint32_t site = 0; site < full.num_sites(); ++site) {
      EXPECT_EQ(own.site_fetch_count(site), full.site_fetch_count(site))
          << site;
    }
  }
}

TEST(SimulatedWebTest, TreeChildrenLinked) {
  WebConfig c = SmallConfig();
  c.cross_links_per_page = 0;
  SimulatedWeb web(c);
  auto result = web.Fetch(web.RootUrl(0), 0.0);
  ASSERT_TRUE(result.ok());
  // With no cross links, the root's links are exactly slots 1..branching.
  ASSERT_EQ(result->links.size(),
            static_cast<std::size_t>(c.tree_branching));
  for (int b = 0; b < c.tree_branching; ++b) {
    EXPECT_EQ(result->links[static_cast<std::size_t>(b)].slot,
              static_cast<uint32_t>(b + 1));
    EXPECT_EQ(result->links[static_cast<std::size_t>(b)].site, 0u);
  }
}

TEST(SimulatedWebTest, RootIsImmortal) {
  SimulatedWeb web(SmallConfig());
  auto root = web.Fetch(web.RootUrl(3), 0.0);
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(std::isinf(web.OracleDeathTime(root->page)));
  auto later = web.Fetch(web.RootUrl(3), 1000.0);
  ASSERT_TRUE(later.ok());
  EXPECT_EQ(later->page, root->page);  // same page, same URL, still alive
}

TEST(SimulatedWebTest, DeadPageReturnsNotFoundAndSlotIsReborn) {
  WebConfig c = SmallConfig(21);
  // Short uniform lifespans force turnover quickly.
  c.uniform_lifespan_days = 5.0;
  SimulatedWeb web(c);
  Url first = web.OracleCurrentUrl(0, 3, 0.0);
  EXPECT_EQ(first.incarnation, 0u);
  // After several lifespans the slot must host a later incarnation.
  Url later = web.OracleCurrentUrl(0, 3, 30.0);
  EXPECT_GT(later.incarnation, first.incarnation);
  auto dead_fetch = web.Fetch(first, 31.0);
  EXPECT_FALSE(dead_fetch.ok());
  EXPECT_EQ(dead_fetch.status().code(), StatusCode::kNotFound);
  auto live_fetch = web.Fetch(later, 31.0);
  EXPECT_TRUE(live_fetch.ok());
}

TEST(SimulatedWebTest, UniformLifespanIsExact) {
  WebConfig c = SmallConfig(22);
  c.uniform_lifespan_days = 10.0;
  SimulatedWeb web(c);
  // A page born during the run (incarnation >= 1) lives exactly 10 days.
  Url u = web.OracleCurrentUrl(1, 5, 25.0);
  ASSERT_GE(u.incarnation, 1u);
  auto id = web.OracleLookup(u);
  ASSERT_TRUE(id.ok());
  EXPECT_NEAR(web.OracleDeathTime(*id) - web.OracleBirthTime(*id), 10.0,
              1e-9);
}

TEST(SimulatedWebTest, VersionMonotonicNonDecreasing) {
  SimulatedWeb web(SmallConfig(23));
  Url root = web.RootUrl(0);
  uint64_t prev = 0;
  for (double t = 0.0; t <= 200.0; t += 10.0) {
    auto v = web.OracleVersion(root, t);
    ASSERT_TRUE(v.ok());
    EXPECT_GE(*v, prev);
    prev = *v;
  }
}

TEST(SimulatedWebTest, PoissonChangeCountMatchesRate) {
  // Property: over horizon H, E[version] = rate * H for an immortal page.
  WebConfig c = SmallConfig(24);
  c.uniform_change_interval_days = 4.0;
  c.uniform_lifespan_days = 1e6;
  SimulatedWeb web(c);
  const double horizon = 400.0;
  RunningStat changes_per_day;
  for (uint32_t s = 0; s < web.num_sites(); ++s) {
    for (uint32_t slot = 0; slot < web.site_size(s); ++slot) {
      Url u = web.OracleCurrentUrl(s, slot, 0.0);
      auto v = web.OracleVersion(u, horizon);
      if (!v.ok()) continue;
      changes_per_day.Add(static_cast<double>(*v) / horizon);
    }
  }
  EXPECT_GT(changes_per_day.count(), 200);
  EXPECT_NEAR(changes_per_day.mean(), 0.25, 0.01);
}

TEST(SimulatedWebTest, OracleIsFreshTracksVersion) {
  WebConfig c = SmallConfig(25);
  c.uniform_change_interval_days = 2.0;
  c.uniform_lifespan_days = 1e6;
  SimulatedWeb web(c);
  Url u = web.OracleCurrentUrl(0, 1, 0.0);
  auto fetched = web.Fetch(u, 0.0);
  ASSERT_TRUE(fetched.ok());
  EXPECT_TRUE(web.OracleIsFresh(u, fetched->version, 0.0));
  // After many mean intervals the page has almost surely changed.
  EXPECT_FALSE(web.OracleIsFresh(u, fetched->version, 100.0));
}

TEST(SimulatedWebTest, OracleLastChangeTimeWithinBounds) {
  WebConfig c = SmallConfig(26);
  c.uniform_change_interval_days = 1.0;
  c.uniform_lifespan_days = 1e6;
  SimulatedWeb web(c);
  Url u = web.OracleCurrentUrl(0, 2, 0.0);
  auto t0 = web.OracleLastChangeTime(u, 50.0);
  ASSERT_TRUE(t0.ok());
  EXPECT_LE(*t0, 50.0);
  EXPECT_GE(*t0, 0.0);
}

TEST(SimulatedWebTest, OracleLookupRejectsUnknown) {
  SimulatedWeb web(SmallConfig());
  EXPECT_FALSE(web.OracleLookup(Url{0, 0, 99}).ok());
  EXPECT_FALSE(web.OracleLookup(Url{99, 0, 0}).ok());
}

TEST(SimulatedWebTest, FetchStatisticsAccumulate) {
  SimulatedWeb web(SmallConfig());
  ASSERT_TRUE(web.Fetch(web.RootUrl(0), 0.0).ok());
  ASSERT_TRUE(web.Fetch(web.RootUrl(0), 0.1).ok());
  EXPECT_FALSE(web.Fetch(Url{0, 1, 55}, 0.2).ok());
  EXPECT_EQ(web.fetch_count(), 3u);
  EXPECT_EQ(web.not_found_count(), 1u);
  EXPECT_EQ(web.site_fetch_count(0), 3u);
}

// Fetches sites 0-7 for three passes at t = 1, 2, 3: each site's real
// slots 0-9 at incarnation 0 (some dead by then), one slot past its size
// (a trap URL on a trap site, a stray URL elsewhere), plus one URL of a
// site past the web. With `threads` > 1, thread i fetches sites i and
// i + 4, so adjacent sites run on different threads.
void FetchSitesZeroToSeven(SimulatedWeb& web, int threads) {
  const auto fetch_sites = [&web](int lane, int lanes) {
    for (int pass = 1; pass <= 3; ++pass) {
      const double t = pass;
      for (uint32_t site = 0; site < 8; ++site) {
        if (static_cast<int>(site) % lanes != lane) continue;
        for (uint32_t slot = 0; slot < 10; ++slot) {
          (void)web.Fetch(Url{site, slot, 0}, t);
        }
        (void)web.Fetch(Url{site, web.site_size(site) + pass, 0}, t);
        (void)web.Fetch(Url{web.num_sites() + site, 0, 0}, t);
      }
    }
  };
  web.BeginConcurrentBatch(1.0);
  if (threads == 1) {
    fetch_sites(0, 1);
  } else {
    std::vector<std::thread> workers;
    for (int lane = 0; lane < threads; ++lane) {
      workers.emplace_back(fetch_sites, lane, threads);
    }
    for (std::thread& worker : workers) worker.join();
  }
  web.EndConcurrentBatch();
}

std::string SavedWeb(const SimulatedWeb& web) {
  std::ostringstream out;
  EXPECT_TRUE(SaveWeb(web, out).ok());
  return out.str();
}

TEST(SimulatedWebTest, ThreadsOnAdjacentSitesCountLikeSerial) {
  WebConfig config = SmallConfig(31);
  ASSERT_TRUE(ApplyFaultScenario("transient10", &config).ok());
  ASSERT_TRUE(ApplyAdversarialScenario("spider-trap", &config).ok());
  SimulatedWeb serial(config);
  ASSERT_GE(serial.num_sites(), 8u);
  FetchSitesZeroToSeven(serial, 1);
  SimulatedWeb parallel(config);
  FetchSitesZeroToSeven(parallel, 4);

  EXPECT_EQ(serial.fetch_count(), 8u * 3u * 12u);
  EXPECT_GT(serial.not_found_count(), 8u * 3u);  // the strays, at least
  EXPECT_EQ(parallel.fetch_count(), serial.fetch_count());
  EXPECT_EQ(parallel.not_found_count(), serial.not_found_count());
  EXPECT_EQ(parallel.OracleTotalPagesCreated(),
            serial.OracleTotalPagesCreated());
  for (uint32_t site = 0; site < serial.num_sites(); ++site) {
    EXPECT_EQ(parallel.site_fetch_count(site), serial.site_fetch_count(site))
        << site;
  }
  EXPECT_TRUE(SavedWeb(parallel) == SavedWeb(serial));
}

TEST(WebSnapshotTest, RestoredTrafficCountersReadTheSavedTotals) {
  // The totals are sums of per-site counters plus a stray counter; a
  // restore must leave them at the saved values, not add the restored
  // per-site counts to them, and a restore into a web that has fetched
  // already must drop its own counts.
  const WebConfig config = SmallConfig(32);
  SimulatedWeb web(config);
  FetchSitesZeroToSeven(web, 1);
  const std::string saved = SavedWeb(web);
  ASSERT_GT(web.fetch_count(), web.site_fetch_count(0));

  SimulatedWeb restored(config);
  (void)restored.Fetch(restored.RootUrl(3), 0.5);
  (void)restored.Fetch(Url{restored.num_sites(), 0, 0}, 0.5);
  std::istringstream in(saved);
  ASSERT_TRUE(RestoreWeb(in, &restored).ok());
  EXPECT_EQ(restored.fetch_count(), web.fetch_count());
  EXPECT_EQ(restored.not_found_count(), web.not_found_count());
  EXPECT_EQ(restored.OracleTotalPagesCreated(), web.OracleTotalPagesCreated());
  for (uint32_t site = 0; site < web.num_sites(); ++site) {
    EXPECT_EQ(restored.site_fetch_count(site), web.site_fetch_count(site));
  }
  EXPECT_EQ(SavedWeb(restored), saved);

  // Both go on counting alike, restore after restore.
  for (SimulatedWeb* w : {&web, &restored}) {
    (void)w->Fetch(w->RootUrl(1), 4.0);
    (void)w->Fetch(Url{1, 0, 7}, 4.0);
  }
  EXPECT_EQ(SavedWeb(restored), SavedWeb(web));
  std::istringstream again(SavedWeb(web));
  ASSERT_TRUE(RestoreWeb(again, &restored).ok());
  EXPECT_EQ(restored.fetch_count(), web.fetch_count());
  EXPECT_EQ(restored.not_found_count(), web.not_found_count());
}

TEST(SimulatedWebTest, SiteLinksAreCrossSiteOnly) {
  SimulatedWeb web(SmallConfig(27));
  auto links = web.OracleSiteLinks(0.0);
  EXPECT_FALSE(links.empty());
  for (const auto& link : links) {
    EXPECT_NE(link.from, link.to);
    EXPECT_GT(link.count, 0u);
    EXPECT_LT(link.from, web.num_sites());
    EXPECT_LT(link.to, web.num_sites());
  }
}

TEST(SimulatedWebTest, StationaryPopulationHasMixedAges) {
  // Initial pages should not all be newborn: birth times must spread
  // into the past.
  SimulatedWeb web(SmallConfig(28));
  int backdated = 0, total = 0;
  for (uint32_t slot = 1; slot < web.site_size(0); ++slot) {
    Url u = web.OracleCurrentUrl(0, slot, 0.0);
    auto id = web.OracleLookup(u);
    ASSERT_TRUE(id.ok());
    backdated += web.OracleBirthTime(*id) < 0.0;
    ++total;
  }
  EXPECT_GT(backdated, total / 2);
}

TEST(SimulatedWebTest, MeanChangeIntervalNearFourMonths) {
  // Section 3.1's crude estimate: the all-domain average change
  // interval is about 4 months. Check the calibrated web's harmonic
  // structure: mean interval (capped at 1 year like the paper's
  // assumption) should land in the 3-6 month range.
  WebConfig c;
  c.seed = 5;
  c.sites_per_domain = {13, 8, 3, 3};  // Table 1 mix, scaled down
  c.min_site_size = 30;
  c.max_site_size = 120;
  SimulatedWeb web(c);
  RunningStat interval_days;
  for (uint32_t s = 0; s < web.num_sites(); ++s) {
    for (uint32_t slot = 0; slot < web.site_size(s); ++slot) {
      Url u = web.OracleCurrentUrl(s, slot, 0.0);
      auto id = web.OracleLookup(u);
      ASSERT_TRUE(id.ok());
      double interval = 1.0 / web.OracleChangeRate(*id);
      interval_days.Add(std::min(interval, 365.0));
    }
  }
  // The standing population is length-biased toward slow pages, so its
  // mean sits above the paper's crude 4-month birth-mix estimate.
  EXPECT_GT(interval_days.mean(), 90.0);
  EXPECT_LT(interval_days.mean(), 270.0);
}

// A page may carry as many cross links as the config asks for:
// Validate() accepts 70,000, so the snapshot must restore them, byte
// for byte.
TEST(WebSnapshotTest, SeventyThousandCrossLinksRoundTrip) {
  WebConfig config;
  config.sites_per_domain = {2, 0, 0, 0};
  config.min_site_size = 2;
  config.max_site_size = 2;
  config.cross_links_per_page = 70000;
  ASSERT_TRUE(config.Validate().ok());
  SimulatedWeb web(config);
  for (uint32_t site = 0; site < web.num_sites(); ++site) {
    (void)web.Fetch(web.RootUrl(site), 1.0);
  }
  std::ostringstream saved;
  ASSERT_TRUE(SaveWeb(web, saved).ok());
  SimulatedWeb restored(config);
  std::istringstream in(saved.str());
  Status st = RestoreWeb(in, &restored);
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::ostringstream resaved;
  ASSERT_TRUE(SaveWeb(restored, resaved).ok());
  EXPECT_EQ(resaved.str(), saved.str());
}

}  // namespace
}  // namespace webevo::simweb
