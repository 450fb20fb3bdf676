// Unit coverage for the cooperative cancellation primitive: inert
// default tokens, first-reason-wins firing, linked source chains
// (client token -> service source -> deadline source, the serving tier's
// exact topology), and the RunControl::may_cancel() gate that keeps
// unarmed runs off the polling path.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "util/cancel.hpp"

namespace csaw {
namespace {

TEST(Cancel, DefaultTokenIsInert) {
  CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
}

TEST(Cancel, SourceFiresItsTokens) {
  CancelSource source;
  CancelToken token = source.token();
  EXPECT_TRUE(token.valid());
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(source.cancelled());

  source.cancel(CancelReason::kDeadline);
  EXPECT_TRUE(source.cancelled());
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);

  // Tokens handed out after the fact observe the fired state too.
  EXPECT_TRUE(source.token().cancelled());
}

TEST(Cancel, FirstReasonWins) {
  CancelSource source;
  source.cancel(CancelReason::kRequested);
  source.cancel(CancelReason::kDeadline);  // too late — ignored
  EXPECT_EQ(source.reason(), CancelReason::kRequested);
}

TEST(Cancel, CancelWithNoneIsIgnored) {
  CancelSource source;
  source.cancel(CancelReason::kNone);
  EXPECT_FALSE(source.cancelled());
  source.cancel(CancelReason::kDeadline);
  EXPECT_EQ(source.reason(), CancelReason::kDeadline);
}

TEST(Cancel, CopiesShareOneFlag) {
  CancelSource source;
  CancelSource copy = source;
  copy.cancel();
  EXPECT_TRUE(source.cancelled());
  EXPECT_EQ(source.reason(), CancelReason::kRequested);
}

TEST(Cancel, LinkedSourceObservesParent) {
  CancelSource client;
  CancelSource service = CancelSource::linked(client.token());
  CancelToken run_token = service.token();
  EXPECT_TRUE(run_token.valid());
  EXPECT_FALSE(run_token.cancelled());

  // The parent fires: the linked token reports it, with the parent's
  // reason; the linked source's own flag stays untouched.
  client.cancel(CancelReason::kRequested);
  EXPECT_TRUE(run_token.cancelled());
  EXPECT_EQ(run_token.reason(), CancelReason::kRequested);
  // The parent's own token never observes the child.
  EXPECT_TRUE(client.token().cancelled());
}

TEST(Cancel, LinkedSourceFiresIndependently) {
  CancelSource client;
  CancelSource deadline = CancelSource::linked(client.token());
  deadline.cancel(CancelReason::kDeadline);
  EXPECT_TRUE(deadline.token().cancelled());
  EXPECT_EQ(deadline.token().reason(), CancelReason::kDeadline);
  // Child firing never propagates up to the parent.
  EXPECT_FALSE(client.cancelled());
  EXPECT_EQ(client.reason(), CancelReason::kNone);
}

TEST(Cancel, OwnReasonShadowsParentReason) {
  // Both levels fired: the chain walk reports the token's OWN source
  // first — the serving tier relies on this to attribute a request that
  // was both client-cancelled and deadline-expired.
  CancelSource client;
  CancelSource deadline = CancelSource::linked(client.token());
  deadline.cancel(CancelReason::kDeadline);
  client.cancel(CancelReason::kRequested);
  EXPECT_EQ(deadline.token().reason(), CancelReason::kDeadline);
  EXPECT_EQ(client.token().reason(), CancelReason::kRequested);
}

TEST(Cancel, ThreeLevelChainPropagates) {
  // The streaming topology: client token -> stream abandon source ->
  // deadline source; the run polls the deepest token and must see a fire
  // at ANY level.
  CancelSource client;
  CancelSource abandon = CancelSource::linked(client.token());
  CancelSource deadline = CancelSource::linked(abandon.token());
  CancelToken run_token = deadline.token();
  EXPECT_FALSE(run_token.cancelled());

  client.cancel(CancelReason::kRequested);
  EXPECT_TRUE(run_token.cancelled());
  EXPECT_EQ(run_token.reason(), CancelReason::kRequested);
}

TEST(Cancel, TokenOutlivesSource) {
  CancelToken token;
  {
    CancelSource source;
    token = source.token();
    source.cancel(CancelReason::kDeadline);
  }
  // The shared state keeps the verdict alive after the owner died.
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
}

TEST(Cancel, MayCancelGatesPolling) {
  // Unarmed control: the engines skip per-entry polling entirely.
  RunControl control;
  EXPECT_FALSE(control.may_cancel());
  EXPECT_FALSE(control.instance_cancelled(0));

  // A run-level token arms the gate and condemns every instance.
  CancelSource run;
  control.cancel = run.token();
  EXPECT_TRUE(control.may_cancel());
  EXPECT_FALSE(control.instance_cancelled(0));
  run.cancel();
  EXPECT_TRUE(control.instance_cancelled(0));
  EXPECT_TRUE(control.instance_cancelled(7));
}

TEST(Cancel, InstanceTokensCancelOneInstance) {
  RunControl control;
  CancelSource second;
  control.instance_cancel = {CancelToken{}, second.token(), CancelToken{}};
  EXPECT_TRUE(control.may_cancel());  // armed even with inert entries
  EXPECT_FALSE(control.instance_cancelled(1));

  second.cancel();
  EXPECT_FALSE(control.instance_cancelled(0));
  EXPECT_TRUE(control.instance_cancelled(1));
  EXPECT_FALSE(control.instance_cancelled(2));
}

}  // namespace
}  // namespace csaw
