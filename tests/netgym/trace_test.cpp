#include "netgym/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace {

using netgym::AbrTraceParams;
using netgym::CcTraceParams;
using netgym::Rng;
using netgym::Trace;

Trace step_trace() {
  Trace t;
  t.timestamps_s = {0.0, 1.0, 2.0, 3.0};
  t.bandwidth_mbps = {1.0, 2.0, 4.0, 8.0};
  return t;
}

TEST(Trace, BandwidthAtSelectsStepFunction) {
  const Trace t = step_trace();
  EXPECT_DOUBLE_EQ(t.bandwidth_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(t.bandwidth_at(0.5), 1.0);
  EXPECT_DOUBLE_EQ(t.bandwidth_at(1.0), 2.0);
  EXPECT_DOUBLE_EQ(t.bandwidth_at(2.7), 4.0);
  EXPECT_DOUBLE_EQ(t.bandwidth_at(99.0), 8.0);   // held past the end
  EXPECT_DOUBLE_EQ(t.bandwidth_at(-1.0), 1.0);   // clamped at the start
}

TEST(Trace, BandwidthAtOnEmptyTraceThrows) {
  EXPECT_THROW(Trace{}.bandwidth_at(0.0), std::logic_error);
}

TEST(Trace, StatsAreCorrect) {
  const Trace t = step_trace();
  EXPECT_DOUBLE_EQ(t.mean_bandwidth(), 3.75);
  EXPECT_DOUBLE_EQ(t.min_bandwidth(), 1.0);
  EXPECT_DOUBLE_EQ(t.max_bandwidth(), 8.0);
  EXPECT_DOUBLE_EQ(t.duration_s(), 3.0);
  // Sample variance of {1,2,4,8} = 9.583..
  EXPECT_NEAR(t.bandwidth_variance(), 9.5833333, 1e-6);
  // Mean |diff| of (1,1,2,4)/... = (1+2+4)/3
  EXPECT_NEAR(t.non_smoothness(), 7.0 / 3.0, 1e-12);
}

TEST(Trace, ValidateCatchesMismatchedArrays) {
  Trace t = step_trace();
  t.bandwidth_mbps.pop_back();
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

TEST(Trace, ValidateCatchesNonIncreasingTimestamps) {
  Trace t = step_trace();
  t.timestamps_s[2] = t.timestamps_s[1];
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

TEST(Trace, ValidateCatchesNegativeBandwidth) {
  Trace t = step_trace();
  t.bandwidth_mbps[1] = -0.1;
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

struct AbrGenCase {
  double min_bw, max_bw, interval, duration;
};

class AbrTraceGen : public ::testing::TestWithParam<AbrGenCase> {};

TEST_P(AbrTraceGen, GeneratesValidTraceWithinBounds) {
  const AbrGenCase& p = GetParam();
  AbrTraceParams params{p.min_bw, p.max_bw, p.interval, p.duration};
  Rng rng(99);
  for (int rep = 0; rep < 5; ++rep) {
    const Trace t = netgym::generate_abr_trace(params, rng);
    ASSERT_NO_THROW(t.validate());
    EXPECT_GE(t.min_bandwidth(), p.min_bw - 1e-9);
    EXPECT_LE(t.max_bandwidth(), p.max_bw + 1e-9);
    // One sample per second plus jitter: duration within ~1.5 s of target.
    EXPECT_GE(t.duration_s(), p.duration - 1.6);
    EXPECT_GE(static_cast<double>(t.size()), p.duration);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AbrTraceGen,
    ::testing::Values(AbrGenCase{0.2, 5.0, 5.0, 100.0},
                      AbrGenCase{1.0, 1.0, 2.0, 40.0},    // constant bw
                      AbrGenCase{0.1, 100.0, 50.0, 400.0},
                      AbrGenCase{2.0, 3.0, 0.5, 60.0},    // fast changes
                      AbrGenCase{0.05, 0.3, 10.0, 200.0}  // slow cellular-ish
                      ));

TEST(AbrTraceGenErrors, RejectsBadParameters) {
  Rng rng(1);
  AbrTraceParams bad_range{5.0, 1.0, 5.0, 100.0};
  EXPECT_THROW(netgym::generate_abr_trace(bad_range, rng),
               std::invalid_argument);
  AbrTraceParams bad_duration{0.1, 1.0, 5.0, 0.0};
  EXPECT_THROW(netgym::generate_abr_trace(bad_duration, rng),
               std::invalid_argument);
}

TEST(AbrTraceGen, ShortIntervalProducesMoreVariation) {
  Rng rng1(7), rng2(7);
  AbrTraceParams fast{0.5, 10.0, 1.0, 300.0};
  AbrTraceParams slow{0.5, 10.0, 60.0, 300.0};
  double fast_ns = 0, slow_ns = 0;
  for (int i = 0; i < 10; ++i) {
    fast_ns += netgym::generate_abr_trace(fast, rng1).non_smoothness();
    slow_ns += netgym::generate_abr_trace(slow, rng2).non_smoothness();
  }
  EXPECT_GT(fast_ns, slow_ns * 2);
}

struct CcGenCase {
  double max_bw, interval, duration;
};

class CcTraceGen : public ::testing::TestWithParam<CcGenCase> {};

TEST_P(CcTraceGen, GeneratesValidTraceWithTenthSecondSteps) {
  const CcGenCase& p = GetParam();
  CcTraceParams params{p.max_bw, p.interval, p.duration};
  Rng rng(123);
  const Trace t = netgym::generate_cc_trace(params, rng);
  ASSERT_NO_THROW(t.validate());
  EXPECT_LE(t.max_bandwidth(), p.max_bw + 1e-9);
  EXPECT_GE(t.min_bandwidth(), std::min(1.0, p.max_bw) - 1e-9);
  // Appendix A.2: 0.1 s timestamp steps.
  ASSERT_GE(t.size(), 2u);
  EXPECT_NEAR(t.timestamps_s[1] - t.timestamps_s[0], 0.1, 1e-6);
  EXPECT_GE(t.duration_s(), p.duration - 0.2);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CcTraceGen,
                         ::testing::Values(CcGenCase{3.16, 7.5, 30.0},
                                           CcGenCase{0.5, 1.0, 10.0},
                                           CcGenCase{100.0, 0.0, 30.0},
                                           CcGenCase{1.0, 30.0, 60.0}));

TEST(CcTraceGenErrors, RejectsBadParameters) {
  Rng rng(1);
  EXPECT_THROW(netgym::generate_cc_trace(CcTraceParams{0.0, 5.0, 30.0}, rng),
               std::invalid_argument);
  EXPECT_THROW(netgym::generate_cc_trace(CcTraceParams{1.0, 5.0, -1.0}, rng),
               std::invalid_argument);
}

TEST(TraceGen, DeterministicGivenSeed) {
  AbrTraceParams params;
  Rng a(5), b(5);
  const Trace ta = netgym::generate_abr_trace(params, a);
  const Trace tb = netgym::generate_abr_trace(params, b);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta.bandwidth_mbps[i], tb.bandwidth_mbps[i]);
    EXPECT_EQ(ta.timestamps_s[i], tb.timestamps_s[i]);
  }
}

/// A generated trace whose bandwidth at sample i is i, so equal lookups
/// mean the same sample, not just an equal value.
Trace indexed(Trace trace) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace.bandwidth_mbps[i] = static_cast<double>(i);
  }
  return trace;
}

/// Every boundary of the wrap and the lookup: each timestamp on the first
/// two laps, span and 2 * span, each with its nextafter neighbours; -0.0,
/// negative times, random times in [-span, 3 * span], the infinities and NaN.
std::vector<double> probe_times(const Trace& trace, Rng& rng) {
  const double span = trace.duration_s();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> times;
  const auto with_neighbours = [&](double t) {
    times.push_back(std::nextafter(t, -inf));
    times.push_back(t);
    times.push_back(std::nextafter(t, inf));
  };
  for (double stamp : trace.timestamps_s) {
    with_neighbours(stamp);
    with_neighbours(stamp + span);
  }
  with_neighbours(0.0);
  with_neighbours(span);
  with_neighbours(2 * span);
  times.push_back(-0.0);
  times.push_back(-span);
  times.push_back(-1e-300);
  for (int i = 0; i < 2000; ++i) times.push_back(rng.uniform(-span, 3 * span));
  times.push_back(inf);
  times.push_back(-inf);
  times.push_back(std::numeric_limits<double>::quiet_NaN());
  return times;
}

void expect_same_bits(double got, double want, double t) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
      << "t = " << t << " got " << got << " want " << want;
}

class TraceCursor : public ::testing::TestWithParam<bool> {
 protected:
  Trace trace() const {
    Rng rng(17);
    return indexed(GetParam() ? netgym::generate_abr_trace({}, rng)
                              : netgym::generate_cc_trace({}, rng));
  }
};

TEST_P(TraceCursor, WrapIsFmodBitForBit) {
  const Trace t = trace();
  const double span = t.duration_s();
  Rng rng(3);
  for (double x : probe_times(t, rng)) {
    expect_same_bits(netgym::wrap_time(x, span), std::fmod(x, span), x);
  }
}

TEST_P(TraceCursor, MatchesWrappedBinarySearchInMonotoneOrder) {
  const Trace t = trace();
  Rng rng(4);
  std::vector<double> times = probe_times(t, rng);
  // NaN sorts nowhere; keep it last.
  std::sort(times.begin(), times.end() - 1);
  Trace::Cursor cursor(t);
  for (double x : times) {
    expect_same_bits(cursor.bandwidth_at(x),
                     t.bandwidth_at(std::fmod(x, t.duration_s())), x);
  }
}

TEST_P(TraceCursor, MatchesWrappedBinarySearchInRandomOrder) {
  const Trace t = trace();
  Rng rng(5);
  std::vector<double> times = probe_times(t, rng);
  std::shuffle(times.begin(), times.end(), std::mt19937_64(5));
  Trace::Cursor cursor(t);
  for (double x : times) {
    expect_same_bits(cursor.bandwidth_at(x),
                     t.bandwidth_at(std::fmod(x, t.duration_s())), x);
  }
}

INSTANTIATE_TEST_SUITE_P(Generated, TraceCursor, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Abr" : "Cc";
                         });

}  // namespace
