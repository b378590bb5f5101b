// FaultSpec grammar (parse / to_string round-trip, per-type overrides,
// malformed input) and FaultInjector determinism.
#include "cico/fault/fault.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace cico::fault {
namespace {

using net::MsgType;

TEST(FaultSpecTest, DefaultInjectsNothing) {
  FaultSpec s;
  EXPECT_FALSE(s.injects());
  EXPECT_DOUBLE_EQ(s.drop_prob(MsgType::Request), 0.0);
  EXPECT_DOUBLE_EQ(s.dup_prob(MsgType::Ack), 0.0);
  EXPECT_DOUBLE_EQ(s.delay_rate(MsgType::Recall).prob, 0.0);
  EXPECT_EQ(s.seed, 1u);
  EXPECT_EQ(s.max_retries, 8u);
  EXPECT_EQ(s.throttle_after, 0u);
}

TEST(FaultSpecTest, ParsesEveryKey) {
  const FaultSpec s = FaultSpec::parse(
      "drop=0.01,dup=0.005,delay=0.02:40,stall=0.001:200,"
      "seed=7,retries=3,backoff=120:4096,throttle=4");
  EXPECT_TRUE(s.injects());
  EXPECT_DOUBLE_EQ(s.drop, 0.01);
  EXPECT_DOUBLE_EQ(s.dup, 0.005);
  EXPECT_DOUBLE_EQ(s.delay.prob, 0.02);
  EXPECT_EQ(s.delay.cycles, 40u);
  EXPECT_DOUBLE_EQ(s.stall.prob, 0.001);
  EXPECT_EQ(s.stall.cycles, 200u);
  EXPECT_EQ(s.seed, 7u);
  EXPECT_EQ(s.max_retries, 3u);
  EXPECT_EQ(s.backoff_base, 120u);
  EXPECT_EQ(s.backoff_cap, 4096u);
  EXPECT_EQ(s.throttle_after, 4u);
}

TEST(FaultSpecTest, PerTypeOverridesInheritGlobalElsewhere) {
  const FaultSpec s = FaultSpec::parse(
      "drop=0.1,drop.recall=0.5,dup.ack=0.2,delay.writeback=0.3:10");
  EXPECT_DOUBLE_EQ(s.drop_prob(MsgType::Recall), 0.5);
  EXPECT_DOUBLE_EQ(s.drop_prob(MsgType::Request), 0.1);  // inherits global
  EXPECT_DOUBLE_EQ(s.dup_prob(MsgType::Ack), 0.2);
  EXPECT_DOUBLE_EQ(s.dup_prob(MsgType::Request), 0.0);
  EXPECT_DOUBLE_EQ(s.delay_rate(MsgType::Writeback).prob, 0.3);
  EXPECT_EQ(s.delay_rate(MsgType::Writeback).cycles, 10u);
  EXPECT_DOUBLE_EQ(s.delay_rate(MsgType::Request).prob, 0.0);
}

TEST(FaultSpecTest, PerTypeOverrideCanDisableAType) {
  const FaultSpec s = FaultSpec::parse("drop=0.5,drop.writeback=0");
  EXPECT_DOUBLE_EQ(s.drop_prob(MsgType::Writeback), 0.0);
  EXPECT_DOUBLE_EQ(s.drop_prob(MsgType::Request), 0.5);
}

TEST(FaultSpecTest, ToStringRoundTrips) {
  const char* text =
      "drop=0.01,dup=0.005,delay=0.02:40,stall=0.001:200,"
      "drop.recall=0.5,seed=7,retries=3,backoff=120:4096,throttle=4";
  const FaultSpec a = FaultSpec::parse(text);
  const FaultSpec b = FaultSpec::parse(a.to_string());
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_DOUBLE_EQ(b.drop_prob(MsgType::Recall), 0.5);
  EXPECT_EQ(b.seed, 7u);
}

TEST(FaultSpecTest, EmptyTokensAreIgnored) {
  const FaultSpec s = FaultSpec::parse(",drop=0.1,,");
  EXPECT_DOUBLE_EQ(s.drop, 0.1);
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "drop",                 // missing =
      "drop=",                // empty value
      "drop=x",               // not a number
      "drop=1.5",             // probability outside [0,1]
      "drop=-0.1",            // probability outside [0,1]
      "bogus=1",              // unknown key
      "delay=0.5",            // missing :cycles
      "delay=0.5:0",          // zero-cycle fault
      "stall=0.5:zz",         // malformed cycle count
      "seed.request=3",       // key does not take a message type
      "drop.bogus=0.1",       // unknown message type
      "backoff=100",          // missing :cap
      "backoff=1:0",          // zero cap
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)FaultSpec::parse(text), std::invalid_argument)
        << "accepted: " << text;
  }
}

TEST(FaultInjectorTest, SameSeedSameFates) {
  const FaultSpec spec = FaultSpec::parse("drop=0.1,dup=0.05,delay=0.2:30");
  // Message i travels node i%4 -> (i+1)%4, sent at cycle 10*i, block i/3.
  const auto fate_of = [](FaultInjector& inj, int i) {
    const auto f = inj.fate_at(MsgType::Request, /*droppable=*/true,
                               static_cast<NodeId>(i % 4),
                               static_cast<NodeId>((i + 1) % 4),
                               static_cast<Cycle>(10 * i),
                               static_cast<Block>(i / 3));
    return (f.dropped ? 1 : 0) | (f.duplicated ? 2 : 0) |
           (f.delay != 0 ? 4 : 0);
  };
  auto draw = [&](std::uint64_t seed, bool reversed) {
    FaultSpec s = spec;
    s.seed = seed;
    FaultInjector inj(s);
    std::vector<int> fates(1000);
    for (int n = 0; n < 1000; ++n) {
      const int i = reversed ? 999 - n : n;
      fates[static_cast<std::size_t>(i)] = fate_of(inj, i);
    }
    return fates;
  };
  EXPECT_EQ(draw(42, false), draw(42, false));
  EXPECT_NE(draw(42, false), draw(43, false));
  // A verdict depends on the message, not on when it is drawn.
  EXPECT_EQ(draw(42, false), draw(42, true));
}

TEST(FaultInjectorTest, DroppedMessageIsNeitherDuplicatedNorDelayed) {
  FaultInjector inj(FaultSpec::parse("drop=1.0,dup=1.0,delay=1.0:5"));
  const auto f = inj.fate_at(MsgType::Request, /*droppable=*/true, 0, 1, 100,
                             7);
  EXPECT_TRUE(f.dropped);
  EXPECT_FALSE(f.duplicated);
  EXPECT_EQ(f.delay, 0u);
  EXPECT_EQ(inj.drops(), 1u);
  EXPECT_EQ(inj.drops_of(MsgType::Request), 1u);
  EXPECT_EQ(inj.dups(), 0u);
}

TEST(FaultInjectorTest, ReliableLegsAreNeverDropped) {
  FaultInjector inj(FaultSpec::parse("drop=1.0,dup=1.0,delay=1.0:5"));
  const auto f = inj.fate_at(MsgType::PrefetchReply, /*droppable=*/false, 1,
                             0, 100, 7);
  EXPECT_FALSE(f.dropped);
  EXPECT_TRUE(f.duplicated);   // dup/delay still apply to reliable legs
  EXPECT_EQ(f.delay, 5u);
  EXPECT_EQ(inj.drops(), 0u);
}

TEST(FaultInjectorTest, HandlerStall) {
  FaultInjector always(FaultSpec::parse("stall=1.0:200"));
  EXPECT_EQ(always.handler_stall_at(7, 0, 100), 200u);
  EXPECT_EQ(always.stalls(), 1u);
  FaultInjector never(FaultSpec{});
  EXPECT_EQ(never.handler_stall_at(7, 0, 100), 0u);
  EXPECT_EQ(never.stalls(), 0u);
}

}  // namespace
}  // namespace cico::fault
