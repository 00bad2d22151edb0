#include "queueing/mg1.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "queueing/mm1_simulator.hpp"
#include "util/error.hpp"

namespace palb {
namespace {

TEST(Mg1, ExponentialServiceReducesToMm1) {
  // SCV = 1 recovers 1/(mu - lambda).
  EXPECT_NEAR(mg1::expected_sojourn_fcfs(10.0, 6.0, 1.0), 1.0 / 4.0, 1e-12);
}

TEST(Mg1, DeterministicServiceHalvesTheWait) {
  // M/D/1 waits are exactly half the M/M/1 waits.
  const double wait_md1 = mg1::expected_wait_fcfs(10.0, 6.0, 0.0);
  const double wait_mm1 = mg1::expected_wait_fcfs(10.0, 6.0, 1.0);
  EXPECT_NEAR(wait_md1, 0.5 * wait_mm1, 1e-12);
}

TEST(Mg1, WaitGrowsLinearlyInScv) {
  const double w0 = mg1::expected_wait_fcfs(10.0, 5.0, 0.0);
  const double w1 = mg1::expected_wait_fcfs(10.0, 5.0, 1.0);
  const double w3 = mg1::expected_wait_fcfs(10.0, 5.0, 3.0);
  EXPECT_NEAR(w1 - w0, (w3 - w1) / 2.0, 1e-12);
}

TEST(Mg1, PsIsInsensitive) {
  EXPECT_DOUBLE_EQ(mg1::expected_sojourn_ps(10.0, 6.0), 0.25);
}

TEST(Mg1, Validation) {
  EXPECT_THROW(mg1::expected_wait_fcfs(10.0, 10.0, 1.0), InvalidArgument);
  EXPECT_THROW(mg1::expected_wait_fcfs(10.0, 5.0, -1.0), InvalidArgument);
  EXPECT_THROW(mg1::expected_wait_fcfs(0.0, 0.0, 1.0), InvalidArgument);
}

TEST(Mmm, SingleServerMatchesMm1) {
  EXPECT_NEAR(mmm::expected_sojourn(1, 10.0, 6.0), 0.25, 1e-12);
  EXPECT_NEAR(mmm::erlang_c(1, 10.0, 6.0), 0.6, 1e-12);  // rho
}

TEST(Mmm, ErlangCKnownValue) {
  // m=2, mu=1, lambda=1 (offered a=1, rho=0.5): C = 1/3.
  EXPECT_NEAR(mmm::erlang_c(2, 1.0, 1.0), 1.0 / 3.0, 1e-12);
}

TEST(Mmm, PoolingBeatsSplitting) {
  // One pooled M/M/2 beats two separate M/M/1s at the same total load.
  const double pooled = mmm::expected_sojourn(2, 10.0, 12.0);
  const double split = 1.0 / (10.0 - 6.0);  // each M/M/1 sees lambda 6
  EXPECT_LT(pooled, split);
}

TEST(Mmm, SojournDecreasesWithServers) {
  double last = 1e9;
  for (int m = 2; m <= 10; ++m) {
    const double sojourn = mmm::expected_sojourn(m, 5.0, 9.0);
    EXPECT_LT(sojourn, last);
    last = sojourn;
  }
}

TEST(Mmm, ServersForDeadline) {
  const double mu = 5.0, lambda = 9.0;
  const int m = mmm::servers_for_deadline(mu, lambda, 0.25);
  EXPECT_LE(mmm::expected_sojourn(m, mu, lambda), 0.25);
  if (m > 1 && lambda < static_cast<double>(m - 1) * mu) {
    EXPECT_GT(mmm::expected_sojourn(m - 1, mu, lambda), 0.25);
  }
  EXPECT_EQ(mmm::servers_for_deadline(5.0, 0.0, 1.0), 1);
  EXPECT_THROW(mmm::servers_for_deadline(5.0, 9.0, 0.1), InvalidArgument);
}

TEST(Mmm, Validation) {
  EXPECT_THROW(mmm::erlang_c(0, 1.0, 0.5), InvalidArgument);
  EXPECT_THROW(mmm::erlang_c(2, 1.0, 2.0), InvalidArgument);
}

// ---- Empirical validation of the distribution-shape story -------------

// gtest_discover_tests names each case after its printed parameter, which
// for a struct without a printer is its raw bytes. Implicit padding would put
// leftover heap bytes into those names, so every build would register
// different test names; the explicit zeroed pad keeps all 16 bytes defined.
struct ShapeCase {
  ServiceDistribution::Kind kind;
  std::uint32_t pad = 0;
  double scv;
};
static_assert(sizeof(ShapeCase) == sizeof(ServiceDistribution::Kind) +
                                       sizeof(std::uint32_t) + sizeof(double),
              "ShapeCase must have no implicit padding");

class Mg1SimulationTest : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(Mg1SimulationTest, FcfsMatchesPollaczekKhinchine) {
  const ShapeCase c = GetParam();
  Mm1Simulator::Params p;
  p.service_rate = 12.0;
  p.arrival_rate = 7.0;
  p.horizon = 60000.0;
  p.warmup = 500.0;
  p.service.kind = c.kind;
  p.service.scv = c.scv;
  Rng rng(static_cast<std::uint64_t>(c.scv * 100.0) + 41);
  const Mm1SimResult r = Mm1Simulator::run_fcfs(p, rng);
  const double analytic = mg1::expected_sojourn_fcfs(
      p.service_rate, p.arrival_rate, p.service.theoretical_scv());
  ASSERT_GT(r.sojourn.count(), 10000u);
  EXPECT_NEAR(r.sojourn.mean(), analytic, 0.08 * analytic);
}

TEST_P(Mg1SimulationTest, PsIsInsensitiveToShape) {
  // The paper's VM model: whatever the work distribution, the PS mean
  // sojourn equals the M/M/1 value — Eq. 1 is exact for VMs.
  const ShapeCase c = GetParam();
  Mm1Simulator::Params p;
  p.service_rate = 12.0;
  p.arrival_rate = 7.0;
  p.horizon = 60000.0;
  p.warmup = 500.0;
  p.service.kind = c.kind;
  p.service.scv = c.scv;
  Rng rng(static_cast<std::uint64_t>(c.scv * 100.0) + 43);
  const Mm1SimResult r = Mm1Simulator::run_processor_sharing(p, rng);
  const double insensitive =
      mg1::expected_sojourn_ps(p.service_rate, p.arrival_rate);
  ASSERT_GT(r.sojourn.count(), 10000u);
  EXPECT_NEAR(r.sojourn.mean(), insensitive, 0.10 * insensitive);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Mg1SimulationTest,
    ::testing::Values(
        ShapeCase{.kind = ServiceDistribution::Kind::kExponential, .scv = 1.0},
        ShapeCase{.kind = ServiceDistribution::Kind::kDeterministic, .scv = 0.0},
        ShapeCase{.kind = ServiceDistribution::Kind::kLognormal, .scv = 0.5},
        ShapeCase{.kind = ServiceDistribution::Kind::kLognormal, .scv = 2.0}));

TEST(ServiceDistribution, SampleMoments) {
  Rng rng(9);
  ServiceDistribution logn{ServiceDistribution::Kind::kLognormal, 2.0};
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(logn.sample(0.5, rng));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
  // SCV = var / mean^2 = 2.
  EXPECT_NEAR(stats.variance() / (stats.mean() * stats.mean()), 2.0, 0.25);

  ServiceDistribution det{ServiceDistribution::Kind::kDeterministic, 0.0};
  EXPECT_DOUBLE_EQ(det.sample(0.7, rng), 0.7);
  EXPECT_DOUBLE_EQ(det.theoretical_scv(), 0.0);
}

}  // namespace
}  // namespace palb
