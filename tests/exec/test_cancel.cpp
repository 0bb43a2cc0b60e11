#include "exec/cancel.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "exec/degrade.h"

namespace netrev::exec {
namespace {

using namespace std::chrono_literals;

TEST(CancelToken, CopiesShareTheSameFlag) {
  CancelToken a;
  CancelToken b = a;
  EXPECT_FALSE(b.cancel_requested());
  a.request_cancel();
  EXPECT_TRUE(a.cancel_requested());
  EXPECT_TRUE(b.cancel_requested());
}

TEST(CancelToken, RawFlagStoreIsVisibleThroughTheToken) {
  // The CLI's SIGINT handler stores through flag() directly; the poll side
  // must observe it like a normal request_cancel().
  CancelToken token;
  token.flag()->store(true, std::memory_order_relaxed);
  EXPECT_TRUE(token.cancel_requested());
}

TEST(Deadline, DefaultAndNonPositiveBudgetsAreUnlimited) {
  EXPECT_FALSE(Deadline().limited());
  EXPECT_FALSE(Deadline().expired());
  EXPECT_FALSE(Deadline::after(0ms).limited());
  EXPECT_FALSE(Deadline::after(-5ms).limited());
  EXPECT_FALSE(Deadline::after(0ms).expired());
}

TEST(Deadline, PositiveBudgetExpiresAfterItElapses) {
  const Deadline d = Deadline::after(1ms);
  EXPECT_TRUE(d.limited());
  std::this_thread::sleep_for(5ms);
  EXPECT_TRUE(d.expired());
}

TEST(Deadline, GenerousBudgetIsNotExpiredImmediately) {
  EXPECT_FALSE(Deadline::after(std::chrono::milliseconds(60'000)).expired());
}

TEST(Deadline, SoonerPrefersTheLimitedAndEarlierDeadline) {
  const Deadline unlimited;
  const Deadline near = Deadline::after(1ms);
  const Deadline far = Deadline::after(std::chrono::milliseconds(60'000));
  EXPECT_FALSE(Deadline::sooner(unlimited, unlimited).limited());
  EXPECT_TRUE(Deadline::sooner(unlimited, near).limited());
  EXPECT_TRUE(Deadline::sooner(near, unlimited).limited());
  std::this_thread::sleep_for(5ms);
  // near has passed; the sooner of {near, far} must be the expired one.
  EXPECT_TRUE(Deadline::sooner(near, far).expired());
  EXPECT_TRUE(Deadline::sooner(far, near).expired());
}

TEST(Checkpoint, DefaultIsUnarmedAndNeverStops) {
  const Checkpoint checkpoint;
  EXPECT_FALSE(checkpoint.armed());
  EXPECT_EQ(checkpoint.stop_requested(), StopReason::kNone);
  EXPECT_NO_THROW(checkpoint.poll());
}

TEST(Checkpoint, ArmedButIdleDoesNotStop) {
  const Checkpoint checkpoint(CancelToken{}, Deadline{});
  EXPECT_TRUE(checkpoint.armed());
  EXPECT_EQ(checkpoint.stop_requested(), StopReason::kNone);
  EXPECT_NO_THROW(checkpoint.poll());
}

TEST(Checkpoint, CancelledTokenThrowsCancelledError) {
  CancelToken token;
  const Checkpoint checkpoint(token, Deadline{});
  token.request_cancel();
  EXPECT_EQ(checkpoint.stop_requested(), StopReason::kCancelled);
  EXPECT_THROW(checkpoint.poll(), CancelledError);
}

TEST(Checkpoint, ExpiredDeadlineThrowsDeadlineExceededError) {
  const Checkpoint checkpoint(CancelToken{}, Deadline::after(1ms));
  std::this_thread::sleep_for(5ms);
  EXPECT_EQ(checkpoint.stop_requested(), StopReason::kDeadline);
  EXPECT_THROW(checkpoint.poll(), DeadlineExceededError);
}

TEST(Checkpoint, CancellationOutranksTheDeadline) {
  // A SIGINT during an already-over-deadline stage must still be reported
  // as cancellation: cancelled runs are abandoned, never degraded.
  CancelToken token;
  const Checkpoint checkpoint(token, Deadline::after(1ms));
  std::this_thread::sleep_for(5ms);
  token.request_cancel();
  EXPECT_EQ(checkpoint.stop_requested(), StopReason::kCancelled);
}

TEST(Checkpoint, ErrorMessagesAreByteStable) {
  // Degrade reasons and journal lines embed these messages verbatim; any
  // wall-clock data in them would break batch byte-stability.
  EXPECT_STREQ(CancelledError().what(), "operation cancelled");
  EXPECT_STREQ(DeadlineExceededError().what(), "deadline exceeded");
}

TEST(DegradeLevel, NamesAreStable) {
  EXPECT_STREQ(degrade_level_name(DegradeLevel::kFull), "full");
  EXPECT_STREQ(degrade_level_name(DegradeLevel::kReducedDepth), "depth");
  EXPECT_STREQ(degrade_level_name(DegradeLevel::kBaseline), "baseline");
  EXPECT_STREQ(degrade_level_name(DegradeLevel::kGroupsOnly), "groups");
}

TEST(DegradePolicy, ParseCoversEveryFlagValue) {
  const auto off = parse_degrade_policy("off");
  ASSERT_TRUE(off.has_value());
  EXPECT_FALSE(off->enabled);

  const struct {
    const char* name;
    DegradeLevel floor;
  } cases[] = {
      {"full", DegradeLevel::kFull},
      {"depth", DegradeLevel::kReducedDepth},
      {"baseline", DegradeLevel::kBaseline},
      {"groups", DegradeLevel::kGroupsOnly},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const auto policy = parse_degrade_policy(c.name);
    ASSERT_TRUE(policy.has_value());
    EXPECT_TRUE(policy->enabled);
    EXPECT_EQ(policy->floor, c.floor);
  }

  EXPECT_FALSE(parse_degrade_policy("").has_value());
  EXPECT_FALSE(parse_degrade_policy("fast").has_value());
  EXPECT_FALSE(parse_degrade_policy("Groups").has_value());
}

}  // namespace
}  // namespace netrev::exec
