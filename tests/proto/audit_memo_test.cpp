// Memoized paranoid audits (check_invariants_incremental).
//
// The contract: an incremental audit detects exactly the violations a full
// audit would detect among blocks whose directory entries were touched
// since the last CLEAN incremental audit, and a clean incremental audit
// clears that memo.  Corruption introduced BEHIND the memo (a block the
// protocol has not touched since its last clean audit) is invisible to
// the incremental check -- that is the whole point of memoizing -- and is
// why the simulator keeps the full walk as the end-of-run backstop.
#include <gtest/gtest.h>

#include <map>

#include "cico/proto/dir1sw.hpp"

namespace cico::proto {
namespace {

using mem::LineState;

class FakeCaches : public CacheControl {
 public:
  [[nodiscard]] LineState peek(NodeId n, Block b) const override {
    auto it = lines_.find({n, b});
    return it == lines_.end() ? LineState::Invalid : it->second;
  }
  void invalidate(NodeId n, Block b) override { lines_.erase({n, b}); }
  void downgrade(NodeId n, Block b) override {
    auto it = lines_.find({n, b});
    if (it != lines_.end()) it->second = LineState::Shared;
  }
  void push_shared(NodeId n, Block b) override {
    lines_[{n, b}] = LineState::Shared;
  }
  void set(NodeId n, Block b, LineState s) {
    if (s == LineState::Invalid) lines_.erase({n, b});
    else lines_[{n, b}] = s;
  }

 private:
  std::map<std::pair<NodeId, Block>, LineState> lines_;
};

class AuditMemoTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kNodes = 4;
  AuditMemoTest()
      : stats_(kNodes), net_(cost_, stats_),
        dir_(kNodes, cost_, net_, stats_, caches_) {}

  CostModel cost_{};
  Stats stats_;
  net::Network net_;
  FakeCaches caches_;
  Dir1SW dir_;
};

TEST_F(AuditMemoTest, CleanRunIsCleanIncrementally) {
  dir_.get_shared(0, 1, 0, false);
  caches_.set(0, 1, LineState::Shared);
  dir_.get_exclusive(2, 6, 0, false);
  caches_.set(2, 6, LineState::Exclusive);
  EXPECT_EQ(dir_.check_invariants(), "");
  EXPECT_EQ(dir_.check_invariants_incremental(), "");
}

TEST_F(AuditMemoTest, TouchedCorruptionIsDetected) {
  dir_.get_shared(0, 1, 0, false);
  caches_.set(0, 1, LineState::Shared);
  EXPECT_EQ(dir_.check_invariants_incremental(), "");

  // Touch block 1 again (put keeps it in the dirty set), then corrupt the
  // cache side: the incremental audit must see it.
  dir_.get_shared(1, 1, 50, false);
  caches_.set(1, 1, LineState::Shared);
  caches_.set(0, 1, LineState::Invalid);  // sharer silently lost its copy
  const std::string diag = dir_.check_invariants_incremental();
  EXPECT_NE(diag, "");
  EXPECT_EQ(diag, dir_.check_invariants());
}

TEST_F(AuditMemoTest, CleanAuditClearsMemoSoUntouchedCorruptionHides) {
  dir_.get_shared(0, 1, 0, false);
  caches_.set(0, 1, LineState::Shared);
  ASSERT_EQ(dir_.check_invariants_incremental(), "");  // clears the memo

  // Corrupt block 1 WITHOUT a protocol call: the memoized audit cannot see
  // it (by design)...
  caches_.set(0, 1, LineState::Invalid);
  EXPECT_EQ(dir_.check_invariants_incremental(), "");
  // ...but the full backstop walk does.
  EXPECT_NE(dir_.check_invariants(), "");
}

TEST_F(AuditMemoTest, FailedAuditKeepsMemoForRecheck) {
  dir_.get_shared(0, 1, 0, false);
  // "Forget" to fill the requester's cache: inconsistent.
  ASSERT_NE(dir_.check_invariants_incremental(), "");
  // The memo must NOT have been cleared by the failed audit: the same
  // violation shows up again without any new protocol activity.
  EXPECT_NE(dir_.check_invariants_incremental(), "");
  // Repair, then the audit passes and clears.
  caches_.set(0, 1, LineState::Shared);
  EXPECT_EQ(dir_.check_invariants_incremental(), "");
}

TEST_F(AuditMemoTest, DirtyTrackingSpansAllHomeSlices) {
  // One block per home slice; corrupt them all; every diagnostic appears.
  for (Block b = 0; b < kNodes; ++b) {
    dir_.get_exclusive(0, b, 0, false);
    caches_.set(0, b, LineState::Exclusive);
  }
  ASSERT_EQ(dir_.check_invariants_incremental(), "");
  for (Block b = 0; b < kNodes; ++b) {
    dir_.put(0, b, true, 100, true);  // check-in -> Idle, touches the entry
  }
  // Leave stale Exclusive copies in the cache: every slice is now wrong.
  for (Block b = 0; b < kNodes; ++b) caches_.set(0, b, LineState::Exclusive);
  const std::string diag = dir_.check_invariants_incremental();
  for (Block b = 0; b < kNodes; ++b) {
    EXPECT_NE(diag.find("block " + std::to_string(b)), std::string::npos)
        << diag;
  }
}

}  // namespace
}  // namespace cico::proto
