#include "rxl/link/retry_buffer.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rxl::link {
namespace {

flit::Flit tagged_flit(std::uint8_t tag) {
  flit::Flit flit;
  flit.payload()[0] = tag;
  return flit;
}

TEST(RetryBuffer, RejectsBadCapacity) {
  EXPECT_THROW(RetryBuffer(0), std::invalid_argument);
  EXPECT_THROW(RetryBuffer(513), std::invalid_argument);
  EXPECT_NO_THROW(RetryBuffer(512));
}

TEST(RetryBuffer, PushFindAck) {
  RetryBuffer buffer(8);
  for (std::uint16_t seq = 0; seq < 5; ++seq)
    EXPECT_TRUE(buffer.push(seq, tagged_flit(static_cast<std::uint8_t>(seq))));
  EXPECT_EQ(buffer.size(), 5u);
  EXPECT_EQ(buffer.oldest_seq(), 0);
  ASSERT_NE(buffer.find(3), nullptr);
  EXPECT_EQ(buffer.find(3)->payload()[0], 3);
  EXPECT_EQ(buffer.find(7), nullptr);

  EXPECT_EQ(buffer.ack_up_to(2), 3u);  // frees 0,1,2
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.oldest_seq(), 3);
  EXPECT_EQ(buffer.find(1), nullptr);
}

TEST(RetryBuffer, FullBlocksPush) {
  RetryBuffer buffer(2);
  EXPECT_TRUE(buffer.push(0, tagged_flit(0)));
  EXPECT_TRUE(buffer.push(1, tagged_flit(1)));
  EXPECT_TRUE(buffer.full());
  EXPECT_FALSE(buffer.push(2, tagged_flit(2)));
  buffer.ack_up_to(0);
  EXPECT_TRUE(buffer.push(2, tagged_flit(2)));
}

TEST(RetryBuffer, StaleAckIgnored) {
  RetryBuffer buffer(8);
  for (std::uint16_t seq = 10; seq < 14; ++seq)
    buffer.push(seq, tagged_flit(static_cast<std::uint8_t>(seq)));
  // Ack far behind the window: nothing released.
  EXPECT_EQ(buffer.ack_up_to(700), 0u);
  EXPECT_EQ(buffer.size(), 4u);
}

TEST(RetryBuffer, WrapAroundSequence) {
  RetryBuffer buffer(8);
  for (std::uint16_t i = 0; i < 6; ++i) {
    const std::uint16_t seq = seq_add(1021, i);  // 1021,1022,1023,0,1,2
    EXPECT_TRUE(buffer.push(seq, tagged_flit(static_cast<std::uint8_t>(i))));
  }
  EXPECT_NE(buffer.find(1023), nullptr);
  EXPECT_NE(buffer.find(0), nullptr);
  EXPECT_EQ(buffer.ack_up_to(1023), 3u);  // frees 1021..1023
  EXPECT_EQ(buffer.oldest_seq(), 0);
  EXPECT_EQ(buffer.ack_up_to(2), 3u);
  EXPECT_TRUE(buffer.empty());
}

TEST(RetryBuffer, ForEachFromVisitsTail) {
  RetryBuffer buffer(8);
  for (std::uint16_t seq = 0; seq < 6; ++seq)
    buffer.push(seq, tagged_flit(static_cast<std::uint8_t>(seq)),
                /*user_tag=*/seq * 100u);
  std::vector<std::uint16_t> visited;
  std::vector<std::uint64_t> tags;
  buffer.for_each_from(3, [&](const RetryBuffer::Entry& entry) {
    visited.push_back(entry.seq);
    tags.push_back(entry.user_tag);
  });
  EXPECT_EQ(visited, (std::vector<std::uint16_t>{3, 4, 5}));
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{300, 400, 500}));
}

TEST(RetryBuffer, FindEntryExposesUserTag) {
  RetryBuffer buffer(4);
  buffer.push(0, tagged_flit(9), 1234);
  const auto* entry = buffer.find_entry(0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->user_tag, 1234u);
  EXPECT_EQ(entry->flit.payload()[0], 9);
}

TEST(RetryBuffer, FindIndexesBySequenceDistanceAcrossWraps) {
  // Lookup is an index computed from the oldest entry's sequence number.
  // Stream a full 512-deep window through three 10-bit wraps, with the
  // storage ring wrapping too, and check every seq in and out of the
  // window at each step.
  RetryBuffer buffer(512);
  std::uint16_t next = 1000;
  std::uint64_t tag = 0;
  for (int round = 0; round < 8; ++round) {
    while (!buffer.full()) {
      ASSERT_TRUE(buffer.push(next, tagged_flit(0), tag++));
      next = seq_next(next);
    }
    const std::uint16_t oldest = *buffer.oldest_seq();
    const std::uint64_t oldest_tag = tag - buffer.size();
    for (std::uint16_t seq = 0; seq < kSeqModulus; ++seq) {
      const int distance = seq_distance(oldest, seq);
      const RetryBuffer::Entry* entry = buffer.find_entry(seq);
      if (distance >= 0 && distance < static_cast<int>(buffer.size())) {
        ASSERT_NE(entry, nullptr) << "seq " << seq;
        ASSERT_EQ(entry->seq, seq);
        ASSERT_EQ(entry->user_tag,
                  oldest_tag + static_cast<std::uint64_t>(distance));
      } else {
        ASSERT_EQ(entry, nullptr) << "seq " << seq;
      }
    }
    // Release a round-dependent share so the ring's head keeps moving.
    const auto released = static_cast<std::uint16_t>(100 + 37 * round);
    buffer.ack_up_to(seq_add(oldest, released - 1));
  }
  buffer.clear();
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.find_entry(next), nullptr);
  EXPECT_TRUE(buffer.push(7, tagged_flit(7)));
  ASSERT_NE(buffer.find(7), nullptr);
  EXPECT_EQ(buffer.find(7)->payload()[0], 7);
}

}  // namespace
}  // namespace rxl::link
