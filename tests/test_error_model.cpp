#include "rxl/phy/error_model.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "rxl/common/bytes.hpp"
#include "rxl/common/types.hpp"
#include "rxl/rs/flit_fec.hpp"

namespace rxl::phy {
namespace {

using Buffer = std::array<std::uint8_t, kFlitBytes>;

TEST(IndependentBitErrors, ZeroBerNeverCorrupts) {
  IndependentBitErrors model(0.0);
  Xoshiro256 rng(1);
  Buffer flit{};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(model.corrupt(flit, rng), 0u);
  EXPECT_EQ(popcount(flit), 0u);
}

TEST(IndependentBitErrors, ReportedFlipsMatchBuffer) {
  IndependentBitErrors model(1e-3);
  Xoshiro256 rng(2);
  for (int trial = 0; trial < 500; ++trial) {
    Buffer flit{};
    const std::size_t reported = model.corrupt(flit, rng);
    EXPECT_EQ(popcount(flit), reported);
  }
}

TEST(IndependentBitErrors, FlitErrorRateMatchesEq1) {
  // At BER 1e-3, FER = 1-(1-1e-3)^2048 ~= 0.871.
  IndependentBitErrors model(1e-3);
  Xoshiro256 rng(3);
  int corrupted = 0;
  constexpr int kTrials = 20000;
  for (int trial = 0; trial < kTrials; ++trial) {
    Buffer flit{};
    if (model.corrupt(flit, rng) > 0) ++corrupted;
  }
  const double fer = 1.0 - std::pow(1.0 - 1e-3, 2048.0);
  EXPECT_NEAR(static_cast<double>(corrupted) / kTrials, fer, 0.01);
}

TEST(IndependentBitErrors, MeanFlipsMatchesBerTimesBits) {
  IndependentBitErrors model(5e-4);
  Xoshiro256 rng(4);
  double total = 0.0;
  constexpr int kTrials = 20000;
  for (int trial = 0; trial < kTrials; ++trial) {
    Buffer flit{};
    total += static_cast<double>(model.corrupt(flit, rng));
  }
  EXPECT_NEAR(total / kTrials, 5e-4 * 2048, 0.03);
}

TEST(DfeBurstErrors, ProducesRuns) {
  DfeBurstErrors model(/*seed_ber=*/2e-3, /*propagation=*/0.7);
  Xoshiro256 rng(5);
  double total_flips = 0.0;
  double total_seeds = 0.0;
  for (int trial = 0; trial < 5000; ++trial) {
    Buffer flit{};
    const std::size_t flips = model.corrupt(flit, rng);
    total_flips += static_cast<double>(flips);
    if (flips > 0) total_seeds += 1.0;
  }
  // Mean run length 1/(1-0.7) ~ 3.33: flips well above seed count.
  EXPECT_GT(total_flips, total_seeds * 2.0);
}

TEST(DfeBurstErrors, ZeroPropagationIsIndependent) {
  DfeBurstErrors model(1e-3, 0.0);
  Xoshiro256 rng(6);
  double total = 0.0;
  constexpr int kTrials = 10000;
  for (int trial = 0; trial < kTrials; ++trial) {
    Buffer flit{};
    total += static_cast<double>(model.corrupt(flit, rng));
  }
  EXPECT_NEAR(total / kTrials, 1e-3 * 2048, 0.1);
}

TEST(GilbertElliott, BadStateRaisesErrorRate) {
  GilbertElliott::Params params;
  params.p_good_to_bad = 1e-4;
  params.p_bad_to_good = 1e-2;
  params.ber_good = 0.0;
  params.ber_bad = 0.5;
  GilbertElliott model(params);
  Xoshiro256 rng(7);
  std::size_t flips = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    Buffer flit{};
    flips += model.corrupt(flit, rng);
  }
  EXPECT_GT(flips, 0u);  // channel visits the bad state
}

TEST(SymbolBurstInjector, ExactSymbolCount) {
  SymbolBurstInjector model(4);
  Xoshiro256 rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    Buffer flit{};
    EXPECT_GT(model.corrupt(flit, rng), 0u);
    std::size_t corrupted_bytes = 0;
    for (const auto byte : flit) corrupted_bytes += byte != 0 ? 1 : 0;
    EXPECT_EQ(corrupted_bytes, 4u);
  }
}

TEST(SymbolBurstInjector, BurstIsContiguous) {
  SymbolBurstInjector model(5);
  Xoshiro256 rng(9);
  Buffer flit{};
  model.corrupt(flit, rng);
  std::size_t first = kFlitBytes, last = 0;
  for (std::size_t i = 0; i < kFlitBytes; ++i) {
    if (flit[i] != 0) {
      first = std::min(first, i);
      last = std::max(last, i);
    }
  }
  EXPECT_EQ(last - first + 1, 5u);
}

TEST(BernoulliGate, RateZeroAndOne) {
  Xoshiro256 rng(10);
  {
    BernoulliGate gate(0.0, std::make_unique<SymbolBurstInjector>(4));
    Buffer flit{};
    for (int i = 0; i < 100; ++i) EXPECT_EQ(gate.corrupt(flit, rng), 0u);
  }
  {
    BernoulliGate gate(1.0, std::make_unique<SymbolBurstInjector>(4));
    Buffer flit{};
    EXPECT_GT(gate.corrupt(flit, rng), 0u);
  }
}

TEST(BernoulliGate, RateRespected) {
  BernoulliGate gate(0.25, std::make_unique<SymbolBurstInjector>(1));
  Xoshiro256 rng(11);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int trial = 0; trial < kTrials; ++trial) {
    Buffer flit{};
    if (gate.corrupt(flit, rng) > 0) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.25, 0.01);
}

TEST(CompositeErrorModel, AccumulatesAllStages) {
  std::vector<std::unique_ptr<ErrorModel>> stages;
  stages.push_back(std::make_unique<SymbolBurstInjector>(2));
  stages.push_back(std::make_unique<SymbolBurstInjector>(3));
  CompositeErrorModel composite(std::move(stages));
  Xoshiro256 rng(12);
  Buffer flit{};
  EXPECT_GT(composite.corrupt(flit, rng), 0u);
  std::size_t corrupted_bytes = 0;
  for (const auto byte : flit) corrupted_bytes += byte != 0 ? 1 : 0;
  // 2 + 3 bytes unless the bursts overlap.
  EXPECT_GE(corrupted_bytes, 3u);
  EXPECT_LE(corrupted_bytes, 5u);
}

TEST(TargetedDoubleError, KillsExactlyTheTargetTransit) {
  TargetedDoubleError model(/*target_transit=*/2);
  Xoshiro256 rng(13);
  for (int transit = 0; transit < 5; ++transit) {
    Buffer flit{};
    const std::size_t flips = model.corrupt(flit, rng);
    if (transit == 2) {
      EXPECT_GT(flips, 0u);
    } else {
      EXPECT_EQ(flips, 0u);
    }
  }
}

TEST(TargetedDoubleError, PatternIsFecFatal) {
  // The injected pattern must be detected-uncorrectable by the real FEC
  // with certainty (S0 = 0 in one lane) — the guaranteed switch drop.
  rs::FlitFec fec;
  Xoshiro256 rng(14);
  Buffer flit{};
  for (std::size_t i = 0; i < kFecProtectedBytes; ++i)
    flit[i] = static_cast<std::uint8_t>(rng.bounded(256));
  fec.encode(flit);
  TargetedDoubleError model(0);
  EXPECT_GT(model.corrupt(flit, rng), 0u);
  EXPECT_FALSE(fec.decode(flit).accepted());
}

TEST(NoErrors, NeverTouches) {
  NoErrors model;
  Xoshiro256 rng(15);
  Buffer flit{};
  EXPECT_EQ(model.corrupt(flit, rng), 0u);
}

// --------------------------------------------------------------------------
// Re-equalization (reset): a link revived after a fault-plan down window
// must not carry pre-outage channel state into the new link-up episode.
// --------------------------------------------------------------------------

TEST(GilbertElliott, ResetReturnsToTheGoodState) {
  GilbertElliott::Params params;
  params.p_good_to_bad = 0.5;  // drop into the bad state almost immediately
  params.p_bad_to_good = 1e-12;
  params.ber_good = 0.0;
  params.ber_bad = 1e-2;
  GilbertElliott model(params);
  Xoshiro256 rng(16);
  Buffer flit{};
  std::size_t flipped = 0;
  for (int i = 0; i < 64 && !model.in_bad_state(); ++i)
    flipped += model.corrupt(flit, rng);
  ASSERT_TRUE(model.in_bad_state());
  model.reset();
  EXPECT_FALSE(model.in_bad_state());
}

TEST(TargetedDoubleError, ResetRestartsTheTransitCount) {
  // The Nth flit of the CURRENT link-up episode is the target: after a
  // revival the count starts over, so the same transit index is hit again.
  TargetedDoubleError model(1);
  Xoshiro256 rng(17);
  Buffer flit{};
  EXPECT_EQ(model.corrupt(flit, rng), 0u);  // transit 0: spared
  EXPECT_GT(model.corrupt(flit, rng), 0u);  // transit 1: killed
  EXPECT_EQ(model.corrupt(flit, rng), 0u);  // transit 2: past the target
  model.reset();
  EXPECT_EQ(model.corrupt(flit, rng), 0u);  // transit 0 again
  EXPECT_GT(model.corrupt(flit, rng), 0u);  // transit 1 again
}

TEST(BernoulliGate, ResetForwardsToTheInnerModel) {
  // The gate itself is stateless; reset() must reach through to the gated
  // model (here: a transit counter that only re-fires if reset worked).
  BernoulliGate gate(1.0, std::make_unique<TargetedDoubleError>(0));
  Xoshiro256 rng(18);
  Buffer flit{};
  EXPECT_GT(gate.corrupt(flit, rng), 0u);
  EXPECT_EQ(gate.corrupt(flit, rng), 0u);
  gate.reset();
  EXPECT_GT(gate.corrupt(flit, rng), 0u);
}

TEST(CompositeErrorModel, ResetForwardsToEveryPart) {
  std::vector<std::unique_ptr<ErrorModel>> parts;
  parts.push_back(std::make_unique<TargetedDoubleError>(0));
  parts.push_back(std::make_unique<TargetedDoubleError>(0));
  CompositeErrorModel composite(std::move(parts));
  Xoshiro256 rng(19);
  Buffer flit{};
  EXPECT_EQ(composite.corrupt(flit, rng), 16u);  // both parts fire
  EXPECT_EQ(composite.corrupt(flit, rng), 0u);   // both past their target
  composite.reset();
  EXPECT_EQ(composite.corrupt(flit, rng), 16u);  // both fire again
}

TEST(DfeBurstErrors, PropagationRunClampsAtTheFlitBoundary) {
  // propagation = 1.0 makes every run extend forever; the model must clamp
  // the run at the end of the flit image instead of walking past it, and
  // the reported flip count must still match the buffer exactly.
  DfeBurstErrors model(1e-3, 1.0);
  Xoshiro256 rng(20);
  for (int trial = 0; trial < 200; ++trial) {
    Buffer flit{};
    const std::size_t reported = model.corrupt(flit, rng);
    EXPECT_EQ(popcount(flit), reported);
    if (reported > 0) {
      // A run that started anywhere flips every bit through the last one.
      EXPECT_TRUE(get_bit(flit, kFlitBytes * 8 - 1));
    }
  }
}

// The contract the link channel's lazy sealing rests on (ErrorModel doc):
// every model is a content-independent XOR. Two instances with equal seeds,
// one fed zero images and one fed random images, must return the same flip
// counts, flip the same bits, and leave their RNGs at the same next draw.
std::vector<std::pair<const char*, std::unique_ptr<ErrorModel>>> all_models() {
  std::vector<std::pair<const char*, std::unique_ptr<ErrorModel>>> models;
  models.emplace_back("Independent",
                      std::make_unique<IndependentBitErrors>(2e-3));
  models.emplace_back("DFE", std::make_unique<DfeBurstErrors>(1e-3, 0.5));
  GilbertElliott::Params params;
  params.p_good_to_bad = 1e-3;
  params.p_bad_to_good = 5e-2;
  params.ber_good = 1e-4;
  params.ber_bad = 0.3;
  models.emplace_back("GilbertElliott",
                      std::make_unique<GilbertElliott>(params));
  models.emplace_back("SymbolBurst", std::make_unique<SymbolBurstInjector>(4));
  models.emplace_back("BernoulliGate",
                      std::make_unique<BernoulliGate>(
                          0.3, std::make_unique<SymbolBurstInjector>(2)));
  std::vector<std::unique_ptr<ErrorModel>> parts;
  parts.push_back(std::make_unique<IndependentBitErrors>(1e-3));
  parts.push_back(std::make_unique<BernoulliGate>(
      0.2, std::make_unique<DfeBurstErrors>(5e-3, 0.7)));
  models.emplace_back("Composite",
                      std::make_unique<CompositeErrorModel>(std::move(parts)));
  models.emplace_back("TargetedDoubleError",
                      std::make_unique<TargetedDoubleError>(7));
  return models;
}

TEST(ErrorModels, ContentIndependentXor) {
  auto on_zero = all_models();
  auto on_random = all_models();
  ASSERT_EQ(on_zero.size(), 7u);
  for (std::size_t m = 0; m < on_zero.size(); ++m) {
    SCOPED_TRACE(on_zero[m].first);
    Xoshiro256 rng_zero(40 + m);
    Xoshiro256 rng_random(40 + m);
    Xoshiro256 content(90 + m);
    std::size_t struck = 0;
    for (int flit = 0; flit < 400; ++flit) {
      Buffer zero{};
      Buffer image{};
      for (auto& byte : image)
        byte = static_cast<std::uint8_t>(content.bounded(256));
      const Buffer original = image;
      const std::size_t zero_flips = on_zero[m].second->corrupt(zero, rng_zero);
      const std::size_t image_flips =
          on_random[m].second->corrupt(image, rng_random);
      ASSERT_EQ(zero_flips, image_flips) << "flit " << flit;
      Buffer difference{};
      for (std::size_t i = 0; i < kFlitBytes; ++i)
        difference[i] = static_cast<std::uint8_t>(image[i] ^ original[i]);
      ASSERT_EQ(difference, zero) << "flit " << flit;
      // A zero count means the image was not written at all.
      if (zero_flips == 0) {
        ASSERT_EQ(popcount(zero), 0u) << "flit " << flit;
      }
      Xoshiro256 next_zero = rng_zero;
      Xoshiro256 next_random = rng_random;
      ASSERT_EQ(next_zero(), next_random()) << "flit " << flit;
      if (zero_flips > 0) ++struck;
    }
    EXPECT_GT(struck, 0u);  // the model was exercised, not just idle
  }
}

}  // namespace
}  // namespace rxl::phy
