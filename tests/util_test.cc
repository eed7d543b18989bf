#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/hash.h"
#include "util/histogram.h"
#include "util/ledger.h"
#include "util/random.h"
#include "util/record_line.h"
#include "util/sorted_runs.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"

namespace webevo {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("page gone");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "page gone");
  EXPECT_EQ(s.ToString(), "NotFound: page gone");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::InvalidArgument("").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::InvalidArgument("bad");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusOrTest, WorksWithNonDefaultConstructibleTypes) {
  struct NoDefault {
    explicit NoDefault(int v) : value(v) {}
    int value;
  };
  StatusOr<NoDefault> v = NoDefault(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->value, 7);
  StatusOr<NoDefault> e = Status::NotFound("none");
  EXPECT_FALSE(e.ok());
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v = std::string("hello");
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "hello");
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 3);
}

TEST(RngTest, ZeroSeedWorks) {
  Rng r(0);
  uint64_t x = r.Next();
  uint64_t y = r.Next();
  EXPECT_NE(x, y);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoundedInRange) {
  Rng r(8);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedCoversAllValues) {
  Rng r(9);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 5000; ++i) ++seen[r.NextBounded(5)];
  for (int count : seen) EXPECT_GT(count, 800);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng r(10);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = r.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng r(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.Bernoulli(0.0));
    EXPECT_TRUE(r.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliMean) {
  Rng r(12);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += r.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng r(13);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) stat.Add(r.Exponential(0.5));
  EXPECT_NEAR(stat.mean(), 2.0, 0.1);
}

TEST(RngTest, ExponentialIsMemorylessShape) {
  // P(X > 2 mean) should be about e^-2.
  Rng r(14);
  int over = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) over += r.Exponential(1.0) > 2.0;
  EXPECT_NEAR(static_cast<double>(over) / n, std::exp(-2.0), 0.01);
}

TEST(RngTest, PoissonSmallMean) {
  Rng r(15);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) {
    stat.Add(static_cast<double>(r.Poisson(3.0)));
  }
  EXPECT_NEAR(stat.mean(), 3.0, 0.1);
  EXPECT_NEAR(stat.variance(), 3.0, 0.2);
}

TEST(RngTest, PoissonLargeMeanUsesNormalApprox) {
  Rng r(16);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) {
    stat.Add(static_cast<double>(r.Poisson(200.0)));
  }
  EXPECT_NEAR(stat.mean(), 200.0, 2.0);
  EXPECT_NEAR(stat.stddev(), std::sqrt(200.0), 1.0);
}

TEST(RngTest, PoissonZeroMean) {
  Rng r(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.Poisson(0.0), 0u);
}

TEST(RngTest, NormalMoments) {
  Rng r(18);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) stat.Add(r.Normal(5.0, 2.0));
  EXPECT_NEAR(stat.mean(), 5.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.05);
}

TEST(RngTest, ZipfRangeAndSkew) {
  Rng r(19);
  const uint64_t n = 1000;
  std::vector<int> counts(n + 1, 0);
  for (int i = 0; i < 50000; ++i) {
    uint64_t k = r.Zipf(n, 1.0);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, n);
    ++counts[k];
  }
  // Rank 1 must dominate rank 10 by roughly 10x under s = 1.
  EXPECT_GT(counts[1], counts[10] * 5);
  EXPECT_GT(counts[1], 0);
}

TEST(RngTest, ZipfSingleElement) {
  Rng r(20);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.Zipf(1, 1.2), 1u);
}

TEST(RngTest, ParetoAboveScale) {
  Rng r(21);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.Pareto(2.0, 1.5), 2.0);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng r(22);
  std::vector<double> w = {0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[r.WeightedIndex(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng r(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  r.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng parent(42);
  Rng a = parent.Fork(0);
  Rng b = parent.Fork(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 3);
}

// ------------------------------------------------------------------ Hash

TEST(HashTest, Fnv1a64KnownValues) {
  // FNV-1a reference: empty string hashes to the offset basis.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(HashTest, DifferentInputsDiffer) {
  EXPECT_NE(Fnv1a64("hello"), Fnv1a64("hellp"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("acb"));
}

TEST(HashTest, SeededVariantsIndependent) {
  EXPECT_NE(Fnv1a64Seeded("data", 1), Fnv1a64Seeded("data", 2));
}

TEST(HashTest, ChecksumOfEmptyIsBothOffsetBases) {
  const Checksum128 sum = ChecksumOf("");
  EXPECT_EQ(sum.lo, 0xcbf29ce484222325ULL);
  EXPECT_EQ(sum.hi, 0x84222325cbf29ce4ULL);
}

TEST(HashTest, ChecksumLowHalfIsFnv1a64) {
  // Published FNV-1a 64 test vectors.
  EXPECT_EQ(ChecksumOf("a").lo, 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(ChecksumOf("foobar").lo, 0x85944171f73967e8ULL);
  for (std::string_view s : {"", "a", "foobar", "page content v1"}) {
    EXPECT_EQ(ChecksumOf(s).lo, Fnv1a64(s)) << s;
  }
}

TEST(HashTest, ChecksumBuilderMatchesChecksumOfForAnySplit) {
  const std::string_view text =
      "<html><head><title>page 7</title></head><body>x</body></html>";
  const Checksum128 whole = ChecksumOf(text);
  for (std::size_t i = 0; i <= text.size(); ++i) {
    for (std::size_t j = i; j <= text.size(); ++j) {
      ChecksumBuilder builder;
      builder.Append(text.substr(0, i));
      builder.Append(text.substr(i, j - i));  // empty when i == j
      builder.Append({});
      builder.Append(text.substr(j));
      ASSERT_EQ(builder.Finish(), whole) << i << "," << j;
    }
  }
  ChecksumBuilder bytewise;
  for (char c : text) bytewise.Append(std::string_view(&c, 1));
  EXPECT_EQ(bytewise.Finish(), whole);
  EXPECT_EQ(ChecksumBuilder().Finish(), ChecksumOf(""));
}

TEST(HashTest, ChecksumWordAppendEqualsByteAppend) {
  // AppendWord(word, n) folds the first n bytes of the word's object
  // representation, as Append of those bytes does, for every cut.
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const uint64_t word = rng.Next();
    char bytes[sizeof(word)];
    std::memcpy(bytes, &word, sizeof(word));
    const std::string prefix(static_cast<std::size_t>(trial % 5), 'p');
    for (std::size_t n = 1; n <= sizeof(word); ++n) {
      ChecksumBuilder by_word;
      ChecksumBuilder by_bytes;
      by_word.Append(prefix);
      by_bytes.Append(prefix);
      by_word.AppendWord(word, n);
      by_bytes.Append(std::string_view(bytes, n));
      EXPECT_EQ(by_word.Finish(), by_bytes.Finish()) << word << " " << n;
    }
  }
}

TEST(HashTest, ChecksumEqualityAndInequality) {
  Checksum128 a = ChecksumOf("page content v1");
  Checksum128 b = ChecksumOf("page content v1");
  Checksum128 c = ChecksumOf("page content v2");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(HashTest, HashCombineOrderSensitive) {
  EXPECT_NE(HashCombine(HashCombine(0, 1), 2),
            HashCombine(HashCombine(0, 2), 1));
}

// ------------------------------------------------------------- Histogram

TEST(HistogramTest, RejectsEmptyEdges) {
  auto h = Histogram::Make({});
  EXPECT_FALSE(h.ok());
}

TEST(HistogramTest, RejectsNonIncreasingEdges) {
  EXPECT_FALSE(Histogram::Make({1.0, 1.0}).ok());
  EXPECT_FALSE(Histogram::Make({2.0, 1.0}).ok());
}

TEST(HistogramTest, RejectsWrongLabelCount) {
  EXPECT_FALSE(Histogram::Make({1.0, 2.0}, {"a", "b"}).ok());
}

TEST(HistogramTest, BucketingMatchesPaperSemantics) {
  // A sample equal to an edge belongs to that bucket (x <= edge).
  Histogram h = Histogram::ChangeIntervalBuckets();
  h.Add(1.0);    // <= 1 day
  h.Add(1.5);    // <= 1 week
  h.Add(7.0);    // <= 1 week
  h.Add(30.0);   // <= 1 month
  h.Add(120.0);  // <= 4 months
  h.Add(121.0);  // > 4 months
  EXPECT_DOUBLE_EQ(h.bucket_count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_count(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_count(2), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_count(3), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_count(4), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 6.0);
}

TEST(HistogramTest, FractionsSumToOne) {
  Histogram h = Histogram::LifespanBuckets();
  for (double v : {0.5, 3.0, 10.0, 50.0, 200.0, 1000.0}) h.Add(v);
  double sum = 0.0;
  for (double f : h.fractions()) sum += f;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(HistogramTest, WeightedAdd) {
  Histogram h = *Histogram::Make({10.0});
  h.Add(5.0, 3.0);
  h.Add(20.0, 1.0);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.75);
  EXPECT_DOUBLE_EQ(h.fraction(1), 0.25);
}

TEST(HistogramTest, MergeRequiresSameEdges) {
  Histogram a = *Histogram::Make({1.0, 2.0});
  Histogram b = *Histogram::Make({1.0, 3.0});
  EXPECT_FALSE(a.Merge(b).ok());
  Histogram c = *Histogram::Make({1.0, 2.0});
  c.Add(0.5);
  a.Add(1.5);
  ASSERT_TRUE(a.Merge(c).ok());
  EXPECT_DOUBLE_EQ(a.total(), 2.0);
  EXPECT_DOUBLE_EQ(a.bucket_count(0), 1.0);
  EXPECT_DOUBLE_EQ(a.bucket_count(1), 1.0);
}

TEST(HistogramTest, QuantileInterpolates) {
  Histogram h = *Histogram::Make({10.0, 20.0});
  for (int i = 0; i < 10; ++i) h.Add(5.0);
  for (int i = 0; i < 10; ++i) h.Add(15.0);
  // Median sits at the boundary between the two buckets.
  EXPECT_NEAR(h.Quantile(0.5), 10.0, 1e-9);
  EXPECT_NEAR(h.Quantile(0.25), 5.0, 1e-9);
  EXPECT_NEAR(h.Quantile(0.75), 15.0, 1e-9);
}

TEST(HistogramTest, QuantileEmpty) {
  Histogram h = *Histogram::Make({1.0});
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramTest, ToStringShowsAllBuckets) {
  Histogram h = Histogram::ChangeIntervalBuckets();
  h.Add(0.5);
  std::string s = h.ToString();
  EXPECT_NE(s.find("<=1day"), std::string::npos);
  EXPECT_NE(s.find(">4months"), std::string::npos);
}

TEST(HistogramTest, OverflowBucketEdgeIsInfinite) {
  Histogram h = Histogram::LifespanBuckets();
  EXPECT_TRUE(std::isinf(h.bucket_upper_edge(h.num_buckets() - 1)));
}

// ----------------------------------------------------------------- Stats

TEST(RunningStatTest, BasicMoments) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatTest, SingleSampleVarianceZero) {
  RunningStat s;
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(InverseNormalCdfTest, KnownQuantiles) {
  EXPECT_NEAR(InverseNormalCdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(InverseNormalCdf(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(InverseNormalCdf(0.025), -1.959964, 1e-4);
  EXPECT_NEAR(InverseNormalCdf(0.8413447), 1.0, 1e-4);
}

TEST(IntervalTest, MeanConfidenceIntervalShrinksWithN) {
  Interval wide = MeanConfidenceInterval(10.0, 2.0, 10, 0.95);
  Interval narrow = MeanConfidenceInterval(10.0, 2.0, 1000, 0.95);
  EXPECT_TRUE(wide.Contains(10.0));
  EXPECT_LT(narrow.width(), wide.width());
}

TEST(IntervalTest, WilsonBoundsStayInUnit) {
  Interval i = WilsonInterval(0, 10, 0.95);
  EXPECT_GE(i.lo, 0.0);
  Interval j = WilsonInterval(10, 10, 0.95);
  EXPECT_LE(j.hi, 1.0);
  EXPECT_GT(j.lo, 0.5);
}

TEST(IntervalTest, PoissonRateIntervalCoversTruth) {
  // 100 events over 50 days at true rate 2/day.
  Interval i = PoissonRateInterval(100, 50.0, 0.95);
  EXPECT_TRUE(i.Contains(2.0));
  EXPECT_LT(i.lo, 2.0);
  EXPECT_GT(i.hi, 2.0);
}

TEST(IntervalTest, PoissonRateIntervalZeroEvents) {
  Interval i = PoissonRateInterval(0, 30.0, 0.95);
  EXPECT_DOUBLE_EQ(i.lo, 0.0);
  EXPECT_GT(i.hi, 0.0);
}

TEST(FitTest, LineRecoversSlope) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i - 2.0);
  }
  auto fit = FitLine(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->slope, 3.0, 1e-9);
  EXPECT_NEAR(fit->intercept, -2.0, 1e-9);
  EXPECT_NEAR(fit->r2, 1.0, 1e-12);
}

TEST(FitTest, LineRejectsDegenerateInput) {
  EXPECT_FALSE(FitLine({1.0}, {2.0}).ok());
  EXPECT_FALSE(FitLine({1.0, 1.0}, {2.0, 3.0}).ok());
  EXPECT_FALSE(FitLine({1.0, 2.0}, {2.0}).ok());
}

TEST(FitTest, ExponentialRecoversRate) {
  std::vector<double> x, y;
  for (int i = 1; i <= 30; ++i) {
    x.push_back(i);
    y.push_back(0.8 * std::exp(-0.25 * i));
  }
  auto fit = FitExponential(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->rate, 0.25, 1e-9);
  EXPECT_NEAR(fit->amplitude, 0.8, 1e-9);
  EXPECT_NEAR(fit->r2, 1.0, 1e-9);
}

TEST(FitTest, ExponentialIgnoresZeroY) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {std::exp(-1.0), 0.0, std::exp(-3.0),
                           std::exp(-4.0)};
  auto fit = FitExponential(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->rate, 1.0, 1e-9);
}

TEST(KsTest, ExponentialSampleHasSmallStatistic) {
  Rng r(99);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(r.Exponential(0.2));
  auto d = KsStatisticExponential(samples, 0.2);
  ASSERT_TRUE(d.ok());
  EXPECT_LT(*d, 0.03);  // well within KS 1% threshold ~1.63/sqrt(n)
}

TEST(KsTest, WrongRateHasLargeStatistic) {
  Rng r(100);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(r.Exponential(0.2));
  auto d = KsStatisticExponential(samples, 1.0);
  ASSERT_TRUE(d.ok());
  EXPECT_GT(*d, 0.3);
}

TEST(KsTest, RejectsBadInput) {
  EXPECT_FALSE(KsStatisticExponential({}, 1.0).ok());
  EXPECT_FALSE(KsStatisticExponential({1.0}, 0.0).ok());
}

TEST(PearsonTest, PerfectCorrelation) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> up = {2, 4, 6, 8};
  std::vector<double> down = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, up), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(x, down), -1.0, 1e-12);
}

// ------------------------------------------------------------ SortedRuns

TEST(SortedRunsTest, MergesAnyNumberOfRunsIntoOneSortedRange) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const auto runs = static_cast<std::size_t>(rng.UniformInt(1, 9));
    std::vector<int> items;
    std::vector<std::size_t> bounds{0};
    for (std::size_t r = 0; r < runs; ++r) {
      std::vector<int> run(rng.NextBounded(40));  // some runs are empty
      for (int& x : run) x = static_cast<int>(rng.NextBounded(50));
      std::sort(run.begin(), run.end());
      items.insert(items.end(), run.begin(), run.end());
      bounds.push_back(items.size());
    }
    std::vector<int> want = items;
    std::sort(want.begin(), want.end());
    MergeSortedRuns(items, bounds, std::less<>());
    EXPECT_EQ(items, want) << "trial " << trial;
  }
}

// ----------------------------------------------------------------- Table

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"freshness", "0.88"});
  table.AddRow({"x", "1"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("freshness"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(TablePrinter::Fmt(0.876543, 2), "0.88");
  EXPECT_EQ(TablePrinter::Fmt(static_cast<int64_t>(42)), "42");
  EXPECT_EQ(TablePrinter::Percent(0.505, 1), "50.5%");
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"1"});
  std::string out = table.ToString();
  EXPECT_NE(out.find('1'), std::string::npos);
}

TEST(AsciiChartTest, RendersGrid) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(0.5 + 0.4 * std::sin(i / 5.0));
  }
  std::string chart = AsciiChart(xs, ys, 0.0, 1.0, 10, 60);
  EXPECT_NE(chart.find('*'), std::string::npos);
  // 10 rows + axis line.
  EXPECT_EQ(std::count(chart.begin(), chart.end(), '\n'), 11);
}

TEST(AsciiChartTest, EmptyInputsYieldEmptyString) {
  EXPECT_TRUE(AsciiChart({}, {}, 0, 1).empty());
}

TEST(AsciiChart2Test, OverlaysTwoSeries) {
  std::vector<double> xs = {0, 1, 2, 3};
  std::vector<double> a = {0.1, 0.1, 0.1, 0.1};
  std::vector<double> b = {0.9, 0.9, 0.9, 0.9};
  std::string chart = AsciiChart2(xs, a, b, 0.0, 1.0, 8, 40);
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find('o'), std::string::npos);
}

// ------------------------------------------------------------ RecordLine

// The formatter must write exactly what an ostream with precision(17)
// writes: every checkpoint, delta segment and view is pinned to those
// bytes, and the readers parse them with operator>>.
std::string StreamText(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string LineText(double v) {
  RecordLine line;
  return std::string(line.Start(v).view());
}

TEST(RecordLineTest, EdgeDoublesMatchPrecision17Stream) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {0.0, -0.0, 5e-324, -5e-324, DBL_MIN, -DBL_MIN, DBL_MAX,
                   -DBL_MAX, 0.1, 1.0 / 3.0, 1e16, 1e17, -1e-7, 1e-5, 1e-4,
                   kInf, -kInf, kNan, -kNan}) {
    EXPECT_EQ(LineText(v), StreamText(v)) << v;
  }
}

TEST(RecordLineTest, RandomDoublesMatchPrecision17Stream) {
  Rng rng(20261017);
  int mismatches = 0;
  for (int i = 0; i < 100000; ++i) {
    // Every bit pattern: all exponents, subnormals, infinities, NaNs.
    const uint64_t bits = rng.Next();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    // And the magnitudes the crawler writes: simulated days, rates.
    const double day = rng.NextDouble() * 1000.0;
    for (double x : {v, day}) {
      if (LineText(x) != StreamText(x)) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << LineText(x) << " != " << StreamText(x);
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

template <typename T>
void ExpectIntegerParity() {
  for (T v : {std::numeric_limits<T>::min(), T{0},
              std::numeric_limits<T>::max()}) {
    std::ostringstream os;
    os << v;
    RecordLine line;
    EXPECT_EQ(line.Start(v).view(), os.str());
  }
}

TEST(RecordLineTest, IntegersAndBoolMatchStream) {
  ExpectIntegerParity<int16_t>();
  ExpectIntegerParity<uint16_t>();
  ExpectIntegerParity<int32_t>();
  ExpectIntegerParity<uint32_t>();
  ExpectIntegerParity<int64_t>();
  ExpectIntegerParity<uint64_t>();
  ExpectIntegerParity<long long>();
  ExpectIntegerParity<unsigned long long>();
  ExpectIntegerParity<std::size_t>();
  for (bool b : {false, true}) {
    std::ostringstream os;
    os << b;
    RecordLine line;
    EXPECT_EQ(line.Start(b).view(), os.str());
  }
}

TEST(RecordLineTest, FieldsAreSpaceSeparatedAndLinesReuseTheBuffer) {
  RecordLine line;
  const std::string name = "section";
  EXPECT_EQ(line.Start("E", 7, 2.5, name, true).Add(-3).view(),
            "E 7 2.5 section 1 -3");
  EXPECT_EQ(line.Start(42).view(), "42");
  EXPECT_EQ(line.Start("webevo-x", std::string_view("kind")).view(),
            "webevo-x kind");
}

// 1-byte integers would stream as characters; floats and other types
// are not record fields at all.
static_assert(RecordField<int16_t> && RecordField<uint64_t> &&
              RecordField<bool> && RecordField<double> &&
              RecordField<const char*> && RecordField<std::string>);
static_assert(!RecordField<char> && !RecordField<int8_t> &&
              !RecordField<uint8_t> && !RecordField<float> &&
              !RecordField<long double>);

// ----------------------------------------------------------------- Ledger

struct ToyStats {
  uint64_t hits = 0;
  RunningStat wait_days;
  uint64_t misses = 0;
  RunningStat lag_seconds;

  template <typename Fn>
  static constexpr void Visit(Fn&& fn) {
    using ledger::Row;
    fn(Row{"hits"}, &ToyStats::hits);
    fn(Row{"wait_days", ledger::Class::kDeterministic, "wait_mean_days",
           ledger::Shown::kMean},
       &ToyStats::wait_days);
    fn(Row{"misses", ledger::Class::kLayout}, &ToyStats::misses);
    fn(Row{"lag_seconds", ledger::Class::kWallClock}, &ToyStats::lag_seconds);
  }
};

// A struct whose table leaves out a field, and one that lists a field
// twice: both fail the check each crawler table is static_asserted
// with.
struct MissingRow {
  uint64_t a = 0;
  uint64_t b = 0;
  template <typename Fn>
  static constexpr void Visit(Fn&& fn) {
    fn(ledger::Row{"a"}, &MissingRow::a);
  }
};
struct TwiceListed {
  uint64_t a = 0;
  uint64_t b = 0;
  template <typename Fn>
  static constexpr void Visit(Fn&& fn) {
    fn(ledger::Row{"a"}, &TwiceListed::a);
    fn(ledger::Row{"b"}, &TwiceListed::a);
  }
};
static_assert(ledger::CoversEveryField<ToyStats>());
static_assert(!ledger::CoversEveryField<MissingRow>());
static_assert(!ledger::CoversEveryField<TwiceListed>());

TEST(LedgerTest, SummaryShowsRowsInTableOrder) {
  ToyStats s;
  s.hits = 3;
  s.misses = 7;
  s.lag_seconds.Add(1.5);
  ledger::SummaryRows empty = {
      {"hits", "3"}, {"wait_mean_days", "0"}, {"misses", "7"}};
  EXPECT_EQ(ledger::Summary(s), empty);
  s.wait_days.Add(1.0);
  s.wait_days.Add(2.0);
  EXPECT_EQ(ledger::Summary(s)[1],
            (std::pair<std::string, std::string>{"wait_mean_days", "1.5"}));
}

TEST(LedgerTest, AddCountersSumsCountersAndLeavesSeries) {
  ToyStats total, shard;
  total.hits = 1;
  shard.hits = 2;
  shard.misses = 5;
  shard.wait_days.Add(4.0);
  ledger::AddCounters(total, shard);
  EXPECT_EQ(total.hits, 3u);
  EXPECT_EQ(total.misses, 5u);
  EXPECT_EQ(total.wait_days.count(), 0);
}

TEST(LedgerTest, DiffNamesTheRowsOfOneClass) {
  ToyStats a, b;
  EXPECT_EQ(ledger::Diff(a, b), std::vector<std::string>{});
  b.misses = 1;
  b.lag_seconds.Add(0.25);
  EXPECT_EQ(ledger::Diff(a, b), std::vector<std::string>{});
  EXPECT_EQ(ledger::Diff(a, b, ledger::Class::kLayout),
            std::vector<std::string>{"misses"});
  // A series differs on any part of its state, not just its mean.
  a.wait_days.Add(1.0);
  a.wait_days.Add(3.0);
  b.wait_days.Add(2.0);
  b.wait_days.Add(2.0);
  EXPECT_EQ(a.wait_days.mean(), b.wait_days.mean());
  EXPECT_EQ(ledger::Diff(a, b), std::vector<std::string>{"wait_days"});
}

}  // namespace
}  // namespace webevo
