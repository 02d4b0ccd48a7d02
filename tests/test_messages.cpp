// Unit + property tests for BIPS protocol messages.
#include <gtest/gtest.h>

#include "src/proto/messages.hpp"
#include "src/util/rng.hpp"

namespace bips::proto {
namespace {

template <typename T>
T round_trip(const T& in) {
  const Bytes b = encode(Message(in));
  const auto out = decode(b);
  EXPECT_TRUE(out.has_value());
  EXPECT_TRUE(std::holds_alternative<T>(*out));
  return std::get<T>(*out);
}

TEST(Messages, LoginRequestRoundTrip) {
  LoginRequest m{0xC0FFEE000001, "gm", "secret-pw"};
  const auto out = round_trip(m);
  EXPECT_EQ(out.bd_addr, m.bd_addr);
  EXPECT_EQ(out.userid, "gm");
  EXPECT_EQ(out.password, "secret-pw");
}

TEST(Messages, LoginReplyRoundTrip) {
  LoginReply m{42, false, "bad credentials"};
  const auto out = round_trip(m);
  EXPECT_EQ(out.bd_addr, 42u);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.reason, "bad credentials");
}

TEST(Messages, LogoutRoundTrips) {
  const auto req = round_trip(LogoutRequest{7, "alice"});
  EXPECT_EQ(req.bd_addr, 7u);
  EXPECT_EQ(req.userid, "alice");
  const auto rep = round_trip(LogoutReply{7, true});
  EXPECT_TRUE(rep.ok);
}

TEST(Messages, PresenceUpdateRoundTrip) {
  PresenceUpdate m{3, 0xB1, true, 123'456'789};
  const auto out = round_trip(m);
  EXPECT_EQ(out.workstation, 3u);
  EXPECT_EQ(out.bd_addr, 0xB1u);
  EXPECT_TRUE(out.present);
  EXPECT_EQ(out.timestamp_ns, 123'456'789);
}

TEST(Messages, WhereIsRoundTrips) {
  const auto req = round_trip(WhereIsRequest{9, 0xB2, "Prof. Rossi"});
  EXPECT_EQ(req.query_id, 9u);
  EXPECT_EQ(req.requester_bd_addr, 0xB2u);
  EXPECT_EQ(req.target_user, "Prof. Rossi");
  const auto rep =
      round_trip(WhereIsReply{9, QueryStatus::kOk, "lab-networks"});
  EXPECT_EQ(rep.status, QueryStatus::kOk);
  EXPECT_EQ(rep.room, "lab-networks");
}

TEST(Messages, PathRoundTrips) {
  const auto req = round_trip(PathRequest{5, 0xB3, "Bob", 2});
  EXPECT_EQ(req.from_room, 2u);
  PathReply rep_in;
  rep_in.query_id = 5;
  rep_in.status = QueryStatus::kOk;
  rep_in.rooms = {"lobby", "office-a", "office-b"};
  rep_in.distance = 26.0;
  const auto rep = round_trip(rep_in);
  EXPECT_EQ(rep.rooms, rep_in.rooms);
  EXPECT_DOUBLE_EQ(rep.distance, 26.0);
}

TEST(Messages, EmptyPathReply) {
  PathReply m;
  m.status = QueryStatus::kNotLoggedIn;
  const auto out = round_trip(m);
  EXPECT_TRUE(out.rooms.empty());
  EXPECT_EQ(out.status, QueryStatus::kNotLoggedIn);
}

TEST(Messages, AllStatusValuesSurvive) {
  for (auto s : {QueryStatus::kOk, QueryStatus::kUnknownUser,
                 QueryStatus::kNotLoggedIn, QueryStatus::kAccessDenied,
                 QueryStatus::kUnreachable, QueryStatus::kLocationUnknown}) {
    EXPECT_EQ(round_trip(WhereIsReply{1, s, ""}).status, s);
  }
}

TEST(Messages, StatusNames) {
  EXPECT_STREQ(to_string(QueryStatus::kOk), "ok");
  EXPECT_STREQ(to_string(QueryStatus::kAccessDenied), "access-denied");
  EXPECT_STREQ(to_string(QueryStatus::kLocationUnknown), "location-unknown");
}

TEST(Messages, DecodeRejectsEmpty) {
  EXPECT_FALSE(decode(Bytes{}).has_value());
}

TEST(Messages, DecodeRejectsUnknownTag) {
  EXPECT_FALSE(decode(Bytes{0x00}).has_value());
  EXPECT_FALSE(decode(Bytes{0x63}).has_value());
}

TEST(Messages, DecodeRejectsTruncation) {
  Bytes b = encode(Message(LoginRequest{1, "user", "pw"}));
  for (std::size_t cut = 1; cut < b.size(); ++cut) {
    const Bytes partial(b.begin(), b.begin() + cut);
    EXPECT_FALSE(decode(partial).has_value()) << "cut at " << cut;
  }
}

TEST(Messages, DecodeRejectsTrailingGarbage) {
  Bytes b = encode(Message(LogoutReply{1, true}));
  b.push_back(0xFF);
  EXPECT_FALSE(decode(b).has_value());
}

TEST(Messages, DecodeRejectsInvalidStatusByte) {
  Bytes b = encode(Message(WhereIsReply{1, QueryStatus::kOk, "x"}));
  b[4 + 1] = 99;  // status byte sits after tag + u32 query id
  EXPECT_FALSE(decode(b).has_value());
}

// Property: random byte soup never crashes the decoder, and every decode
// success re-encodes to a canonical form that decodes identically.
TEST(Messages, FuzzDecodeNeverCrashes) {
  bips::Rng rng(0xF00D);
  int decoded = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    Bytes b(rng.uniform(40));
    for (auto& byte : b) {
      byte = static_cast<std::uint8_t>(rng.uniform(256));
    }
    const auto m = decode(b);
    if (m) {
      ++decoded;
      const Bytes canonical = encode(*m);
      EXPECT_TRUE(decode(canonical).has_value());
    }
  }
  // Sanity: the fuzzer isn't vacuous -- some inputs do parse.
  EXPECT_GT(decoded, 0);
}

// Property: encode/decode is the identity on randomly generated messages.
TEST(Messages, RandomMessageRoundTripProperty) {
  bips::Rng rng(0xBEEF);
  auto rand_str = [&](std::size_t max_len) {
    std::string s(rng.uniform(max_len + 1), '\0');
    for (auto& c : s) c = static_cast<char>('a' + rng.uniform(26));
    return s;
  };
  for (int trial = 0; trial < 2'000; ++trial) {
    switch (rng.uniform(4)) {
      case 0: {
        LoginRequest m{rng.next_u64() & 0xFFFFFFFFFFFF, rand_str(12),
                       rand_str(20)};
        const auto out = round_trip(m);
        EXPECT_EQ(out.userid, m.userid);
        EXPECT_EQ(out.password, m.password);
        break;
      }
      case 1: {
        PresenceUpdate m{static_cast<std::uint32_t>(rng.uniform(100)),
                         rng.next_u64() & 0xFFFFFFFFFFFF, rng.chance(0.5),
                         static_cast<std::int64_t>(rng.next_u64() >> 1)};
        const auto out = round_trip(m);
        EXPECT_EQ(out.workstation, m.workstation);
        EXPECT_EQ(out.timestamp_ns, m.timestamp_ns);
        break;
      }
      case 2: {
        WhereIsRequest m{static_cast<std::uint32_t>(rng.next_u64()),
                         rng.next_u64() & 0xFFFFFFFFFFFF, rand_str(30)};
        const auto out = round_trip(m);
        EXPECT_EQ(out.query_id, m.query_id);
        EXPECT_EQ(out.target_user, m.target_user);
        break;
      }
      default: {
        PathReply m;
        m.query_id = static_cast<std::uint32_t>(rng.next_u64());
        m.status = QueryStatus::kOk;
        const auto n = rng.uniform(6);
        for (std::uint64_t i = 0; i < n; ++i) m.rooms.push_back(rand_str(10));
        m.distance = rng.uniform_double() * 100;
        const auto out = round_trip(m);
        EXPECT_EQ(out.rooms, m.rooms);
        EXPECT_DOUBLE_EQ(out.distance, m.distance);
        break;
      }
    }
  }
}

}  // namespace
}  // namespace bips::proto

// ---- extended message set (subscriptions, history, reliability) ----------

namespace bips::proto {
namespace {

TEST(MessagesExt, PresenceUpdateCarriesSeq) {
  PresenceUpdate m{3, 0xB1, true, 42, 77};
  const auto out = round_trip(m);
  EXPECT_EQ(out.seq, 77u);
}

TEST(MessagesExt, PresenceAckRoundTrip) {
  const auto out = round_trip(PresenceAck{9, 123456789ull});
  EXPECT_EQ(out.workstation, 9u);
  EXPECT_EQ(out.seq, 123456789ull);
}

TEST(MessagesExt, WhoIsInRoundTrips) {
  const auto req = round_trip(WhoIsInRequest{4, 0xB1, "library"});
  EXPECT_EQ(req.room, "library");
  WhoIsInReply rep_in;
  rep_in.query_id = 4;
  rep_in.status = QueryStatus::kOk;
  rep_in.users = {"Alice", "Bob"};
  const auto rep = round_trip(rep_in);
  EXPECT_EQ(rep.users, rep_in.users);
}

TEST(MessagesExt, WhoIsInEmptyRoom) {
  WhoIsInReply m;
  m.status = QueryStatus::kOk;
  EXPECT_TRUE(round_trip(m).users.empty());
}

TEST(MessagesExt, HistoryRoundTrips) {
  const auto req = round_trip(HistoryRequest{5, 0xB2, "Bob", -17});
  EXPECT_EQ(req.at_time_ns, -17);
  HistoryReply rep_in;
  rep_in.query_id = 5;
  rep_in.status = QueryStatus::kOk;
  rep_in.was_present = true;
  rep_in.room = "lab-systems";
  rep_in.since_ns = 999;
  const auto rep = round_trip(rep_in);
  EXPECT_TRUE(rep.was_present);
  EXPECT_EQ(rep.room, "lab-systems");
  EXPECT_EQ(rep.since_ns, 999);
}

TEST(MessagesExt, SubscribeRoundTrips) {
  const auto sub = round_trip(SubscribeRequest{6, 0xB3, "Carol", false});
  EXPECT_FALSE(sub.unsubscribe);
  const auto unsub = round_trip(SubscribeRequest{7, 0xB3, "Carol", true});
  EXPECT_TRUE(unsub.unsubscribe);
  EXPECT_EQ(round_trip(SubscribeReply{6, QueryStatus::kAccessDenied}).status,
            QueryStatus::kAccessDenied);
}

TEST(MessagesExt, MovementEventRoundTrip) {
  MovementEvent m{0xB4, "Dave", true, "coffee-corner", 5'000'000'000};
  const auto out = round_trip(m);
  EXPECT_EQ(out.subscriber_bd_addr, 0xB4u);
  EXPECT_EQ(out.target_user, "Dave");
  EXPECT_TRUE(out.entered);
  EXPECT_EQ(out.room, "coffee-corner");
  EXPECT_EQ(out.timestamp_ns, 5'000'000'000);
}

// ---- versioned unified Query/QueryResult wire format -----------------------

TEST(QueryWire, QueryRoundTripsEveryKind) {
  const Query queries[] = {
      Query::where_is("alice", "Bob"),
      Query::path_to("alice", "Bob", 7),
      Query::who_is_in("alice", "library"),
      Query::where_was("alice", "Bob", SimTime(123'456'789)),
      Query::history_since("", "Bob", SimTime(42)),
  };
  for (const Query& q : queries) {
    const Query out = round_trip(q);
    EXPECT_EQ(out.kind, q.kind);
    EXPECT_EQ(out.requester, q.requester);
    EXPECT_EQ(out.target, q.target);
    EXPECT_EQ(out.from_station, q.from_station);
    EXPECT_EQ(out.at_ns, q.at_ns);
  }
}

TEST(QueryWire, QueryResultRoundTripsEveryStatus) {
  for (auto s : {QueryStatus::kOk, QueryStatus::kUnknownUser,
                 QueryStatus::kNotLoggedIn, QueryStatus::kAccessDenied,
                 QueryStatus::kUnreachable, QueryStatus::kLocationUnknown,
                 QueryStatus::kZoneUnavailable}) {
    QueryResult res;
    res.status = s;
    EXPECT_EQ(round_trip(res).status, s);
  }
  EXPECT_STREQ(to_string(QueryStatus::kZoneUnavailable), "zone-unavailable");
}

TEST(QueryWire, QueryResultRoundTripsAllFields) {
  QueryResult res;
  res.status = QueryStatus::kOk;
  res.room = "lab-networks";
  res.users = {"Alice", "Bob"};
  res.rooms = {"lobby", "corridor", "lab-networks"};
  res.distance = 23.5;
  res.was_present = true;
  res.since = SimTime(7'000'000'001);
  res.visits = {{"lobby", true, SimTime(1)}, {"lobby", false, SimTime(2)}};
  const QueryResult out = round_trip(res);
  EXPECT_EQ(out.room, res.room);
  EXPECT_EQ(out.users, res.users);
  EXPECT_EQ(out.rooms, res.rooms);
  EXPECT_DOUBLE_EQ(out.distance, res.distance);
  EXPECT_TRUE(out.was_present);
  EXPECT_EQ(out.since, res.since);
  ASSERT_EQ(out.visits.size(), 2u);
  EXPECT_EQ(out.visits[0].room, "lobby");
  EXPECT_TRUE(out.visits[0].entered);
  EXPECT_FALSE(out.visits[1].entered);
  EXPECT_EQ(out.visits[1].at, SimTime(2));
}

TEST(QueryWire, PresenceBatchRoundTrip) {
  PresenceBatch batch;
  batch.workstation = 5;
  batch.updates.push_back(PresenceUpdate{5, 0xB1, true, 100, 3, -52.0});
  batch.updates.push_back(PresenceUpdate{5, 0xB2, false, 200, 4, 0.0});
  const PresenceBatch out = round_trip(batch);
  EXPECT_EQ(out.workstation, 5u);
  ASSERT_EQ(out.updates.size(), 2u);
  EXPECT_EQ(out.updates[0].bd_addr, 0xB1u);
  EXPECT_TRUE(out.updates[0].present);
  EXPECT_EQ(out.updates[0].seq, 3u);
  EXPECT_EQ(out.updates[1].bd_addr, 0xB2u);
  EXPECT_FALSE(out.updates[1].present);
  EXPECT_EQ(out.updates[1].timestamp_ns, 200);
}

// The version byte leads both bodies (right after the tag byte): an
// encoder from the future is rejected instead of misparsed.
TEST(QueryWire, RejectsUnknownWireVersion) {
  Bytes q = encode(Message(Query::where_is("a", "B")));
  q[1] = kQueryWireVersion + 1;
  EXPECT_FALSE(decode(q).has_value());

  Bytes res = encode(Message(QueryResult{}));
  res[1] = 0;  // version 0 never existed
  EXPECT_FALSE(decode(res).has_value());
}

TEST(QueryWire, RejectsUnknownKindAndStatusBytes) {
  Bytes q = encode(Message(Query::where_is("a", "B")));
  q[2] = 250;  // kind byte follows the version byte
  EXPECT_FALSE(decode(q).has_value());

  Bytes res = encode(Message(QueryResult{}));
  res[2] = static_cast<std::uint8_t>(QueryStatus::kZoneUnavailable) + 1;
  EXPECT_FALSE(decode(res).has_value());
}

TEST(QueryWire, RejectsTruncationAtEveryByte) {
  QueryResult res;
  res.status = QueryStatus::kOk;
  res.room = "lab";
  res.users = {"Alice"};
  res.visits = {{"lab", true, SimTime(9)}};
  for (const Message& m :
       {Message(Query::history_since("alice", "Bob", SimTime(5))),
        Message(res)}) {
    const Bytes b = encode(m);
    for (std::size_t cut = 1; cut < b.size(); ++cut) {
      EXPECT_FALSE(decode(Bytes(b.begin(), b.begin() + cut)).has_value())
          << "cut at " << cut;
    }
  }
}

TEST(MessagesExt, NewTagsRejectTruncation) {
  for (const Message& m : {Message(PresenceAck{1, 2}),
                           Message(WhoIsInRequest{1, 2, "x"}),
                           Message(SubscribeRequest{1, 2, "y", false}),
                           Message(MovementEvent{1, "z", true, "r", 3})}) {
    Bytes b = encode(m);
    for (std::size_t cut = 1; cut < b.size(); ++cut) {
      EXPECT_FALSE(decode(Bytes(b.begin(), b.begin() + cut)).has_value());
    }
  }
}

TEST(SessionWire, EpochNoticeRoundTrip) {
  EpochNotice m;
  m.server_epoch = 0xDEADBEEF;
  const auto out = round_trip(m);
  EXPECT_EQ(out.server_epoch, 0xDEADBEEFu);
}

TEST(SessionWire, EpochNoticeRejectsTruncation) {
  const Bytes b = encode(Message(EpochNotice{7}));
  for (std::size_t cut = 1; cut < b.size(); ++cut) {
    EXPECT_FALSE(decode(Bytes(b.begin(), b.begin() + cut)).has_value())
        << "cut at " << cut;
  }
}

TEST(SessionWire, LoginMessagesCarryEpochFields) {
  LoginRequest req{0xB1, "gm", "pw"};
  req.prior_epoch = 3;
  EXPECT_EQ(round_trip(req).prior_epoch, 3u);

  LoginReply rep{0xB1, true, ""};
  rep.server_epoch = 4;
  EXPECT_EQ(round_trip(rep).server_epoch, 4u);
}

// Both session bodies lead with kSessionWireVersion; any other version
// byte must be rejected outright, not misparsed against the new layout.
TEST(SessionWire, LoginMessagesRejectWrongWireVersion) {
  for (const Message& m : {Message(LoginRequest{0xB1, "gm", "pw"}),
                           Message(LoginReply{0xB1, true, ""})}) {
    Bytes b = encode(m);
    ASSERT_GT(b.size(), 2u);
    ASSERT_EQ(b[1], kSessionWireVersion);  // tag byte, then version byte
    b[1] = kSessionWireVersion + 1;
    EXPECT_FALSE(decode(b).has_value());
    b[1] = 1;  // the pre-epoch implicit-v1 layout is not decodable either
    EXPECT_FALSE(decode(b).has_value());
  }
}

TEST(SessionWire, LoginMessagesRejectTruncation) {
  LoginRequest req{0xB1, "gm", "pw"};
  req.prior_epoch = 9;
  LoginReply rep{0xB1, true, ""};
  rep.server_epoch = 9;
  for (const Message& m : {Message(req), Message(rep)}) {
    const Bytes b = encode(m);
    for (std::size_t cut = 1; cut < b.size(); ++cut) {
      EXPECT_FALSE(decode(Bytes(b.begin(), b.begin() + cut)).has_value())
          << "cut at " << cut;
    }
  }
}

}  // namespace
}  // namespace bips::proto
