#include <gtest/gtest.h>

#include "dns/message.hpp"
#include "dns/name.hpp"
#include "dns/query_log.hpp"
#include "dns/resolver.hpp"
#include "dns/server.hpp"
#include "dns/zone.hpp"

namespace spfail::dns {
namespace {

using util::IpAddress;

// ---------------------------------------------------------------- Name

TEST(Name, ParseAndFormat) {
  const Name n = Name::from_string("Mail.Example.COM");
  EXPECT_EQ(n.to_string(), "mail.example.com");
  EXPECT_EQ(n.label_count(), 3u);
}

TEST(Name, TrailingDotIgnored) {
  EXPECT_EQ(Name::from_string("example.com."), Name::from_string("example.com"));
}

TEST(Name, Root) {
  EXPECT_TRUE(Name::root().empty());
  EXPECT_EQ(Name::root().to_string(), ".");
  EXPECT_EQ(Name::from_string("."), Name::root());
}

TEST(Name, RejectsEmptyLabel) {
  EXPECT_THROW(Name::from_string("a..b"), std::invalid_argument);
}

TEST(Name, RejectsOversizedLabel) {
  EXPECT_THROW(Name::from_string(std::string(64, 'a') + ".com"),
               std::invalid_argument);
}

TEST(Name, RejectsOversizedName) {
  std::string big;
  for (int i = 0; i < 60; ++i) big += "abcd.";
  big += "com";
  EXPECT_THROW(Name::from_string(big), std::invalid_argument);
}

TEST(Name, LenientKeepsErroneousLabels) {
  const Name n = Name::lenient("%{d1r}.test.example");
  EXPECT_EQ(n.label_count(), 3u);
  EXPECT_EQ(n.labels()[0], "%{d1r}");
}

TEST(Name, ParentChild) {
  const Name n = Name::from_string("example.com");
  EXPECT_EQ(n.parent().to_string(), "com");
  EXPECT_EQ(n.child("mail").to_string(), "mail.example.com");
  EXPECT_EQ(Name::from_string("com").parent(), Name::root());
}

TEST(Name, Subdomain) {
  const Name base = Name::from_string("spf-test.dns-lab.org");
  EXPECT_TRUE(Name::from_string("x.y.spf-test.dns-lab.org").is_subdomain_of(base));
  EXPECT_TRUE(base.is_subdomain_of(base));
  EXPECT_FALSE(Name::from_string("dns-lab.org").is_subdomain_of(base));
  EXPECT_FALSE(Name::from_string("xspf-test.dns-lab.org").is_subdomain_of(base));
  EXPECT_TRUE(base.is_subdomain_of(Name::root()));
}

TEST(Name, LabelsRelativeTo) {
  const Name base = Name::from_string("spf-test.dns-lab.org");
  const Name full = Name::from_string("a.b.spf-test.dns-lab.org");
  const auto rel = full.labels_relative_to(base);
  ASSERT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel[0], "a");
  EXPECT_EQ(rel[1], "b");
  EXPECT_THROW(base.labels_relative_to(full), std::invalid_argument);
}

TEST(Name, Tld) {
  EXPECT_EQ(Name::from_string("mail.example.com").tld(), "com");
  EXPECT_EQ(Name::root().tld(), "");
}

TEST(Name, Ordering) {
  EXPECT_LT(Name::from_string("a.com"), Name::from_string("b.com"));
}

// ---------------------------------------------------------------- TxtRdata

TEST(Txt, SplitsLongStrings) {
  const std::string long_text(600, 'x');
  const TxtRdata rdata = TxtRdata::from_text(long_text);
  ASSERT_EQ(rdata.strings.size(), 3u);
  EXPECT_EQ(rdata.strings[0].size(), 255u);
  EXPECT_EQ(rdata.strings[2].size(), 90u);
  EXPECT_EQ(rdata.joined(), long_text);
}

// ---------------------------------------------------------------- codec

TEST(Codec, QueryRoundTrip) {
  const Message query =
      Message::make_query(0x1234, Name::from_string("example.com"), RRType::TXT);
  const Message decoded = decode(encode(query));
  EXPECT_EQ(decoded, query);
}

TEST(Codec, ResponseRoundTripAllRdataTypes) {
  Message query =
      Message::make_query(7, Name::from_string("example.com"), RRType::ANY);
  Message response = Message::make_response(query, Rcode::NoError);
  const Name owner = Name::from_string("example.com");
  response.answers.push_back(ResourceRecord::a(owner, IpAddress::v4(192, 0, 2, 1)));
  response.answers.push_back(
      ResourceRecord::aaaa(owner, *IpAddress::parse("2001:db8::1")));
  response.answers.push_back(
      ResourceRecord::mx(owner, 10, Name::from_string("mx1.example.com")));
  response.answers.push_back(ResourceRecord::txt(owner, "v=spf1 -all"));
  response.answers.push_back(ResourceRecord::cname(
      Name::from_string("www.example.com"), owner));
  response.answers.push_back(ResourceRecord{
      Name::from_string("example.com"), RRType::NS, RRClass::IN, 300,
      NsRdata{Name::from_string("ns1.example.com")}});
  response.answers.push_back(ResourceRecord{
      Name::from_string("example.com"), RRType::SOA, RRClass::IN, 300,
      SoaRdata{Name::from_string("ns1.example.com"),
               Name::from_string("hostmaster.example.com"), 2021101101, 7200,
               3600, 1209600, 300}});
  response.answers.push_back(
      ResourceRecord{Name::from_string("1.2.0.192.in-addr.arpa"), RRType::PTR,
                     RRClass::IN, 300, PtrRdata{owner}});

  const Message decoded = decode(encode(response));
  EXPECT_EQ(decoded, response);
}

TEST(Codec, CompressionShrinksRepeatedNames) {
  Message m = Message::make_query(1, Name::from_string("a.example.com"),
                                  RRType::MX);
  Message r = Message::make_response(m, Rcode::NoError);
  for (int i = 0; i < 10; ++i) {
    r.answers.push_back(ResourceRecord::mx(
        Name::from_string("a.example.com"), static_cast<std::uint16_t>(i),
        Name::from_string("mx.example.com")));
  }
  const auto wire = encode(r);
  // Without compression each answer would repeat 15+ bytes of name; with
  // compression each answer's owner collapses to a 2-byte pointer.
  EXPECT_LT(wire.size(), 250u);
  EXPECT_EQ(decode(wire), r);
}

TEST(Codec, LongTxtRoundTrip) {
  Message q = Message::make_query(2, Name::from_string("t.example"), RRType::TXT);
  Message r = Message::make_response(q, Rcode::NoError);
  r.answers.push_back(
      ResourceRecord::txt(Name::from_string("t.example"), std::string(600, 's')));
  EXPECT_EQ(decode(encode(r)), r);
}

TEST(Codec, TruncatedInputThrows) {
  const Message query =
      Message::make_query(3, Name::from_string("example.com"), RRType::A);
  auto wire = encode(query);
  wire.resize(wire.size() - 3);
  EXPECT_THROW(decode(wire), WireError);
}

TEST(Codec, TrailingGarbageThrows) {
  const Message query =
      Message::make_query(3, Name::from_string("example.com"), RRType::A);
  auto wire = encode(query);
  wire.push_back(0);
  EXPECT_THROW(decode(wire), WireError);
}

TEST(Codec, PointerLoopThrows) {
  // Hand-craft a message whose qname is a self-pointing compression pointer.
  std::vector<std::uint8_t> wire = {
      0x00, 0x01, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xC0, 0x0C,  // pointer to itself (offset 12)
      0x00, 0x01, 0x00, 0x01};
  EXPECT_THROW(decode(wire), WireError);
}

TEST(Codec, ErroneousLabelsSurviveTheWire) {
  // The vulnerability fingerprint queries contain '%', '{', '}' — they must
  // encode and decode unchanged, since real resolvers pass them through.
  const Name odd = Name::lenient("%{d1r}.x.spf-test.dns-lab.org");
  const Message query = Message::make_query(9, odd, RRType::A);
  const Message decoded = decode(encode(query));
  EXPECT_EQ(decoded.questions[0].qname.to_string(),
            "%{d1r}.x.spf-test.dns-lab.org");
}

// ---------------------------------------------------------------- Zone

Zone make_example_zone() {
  Zone zone(Name::from_string("example.com"));
  zone.add(ResourceRecord::a(Name::from_string("example.com"),
                             IpAddress::v4(192, 0, 2, 1)));
  zone.add(ResourceRecord::mx(Name::from_string("example.com"), 10,
                              Name::from_string("mx1.example.com")));
  zone.add(ResourceRecord::a(Name::from_string("mx1.example.com"),
                             IpAddress::v4(192, 0, 2, 25)));
  zone.add(ResourceRecord::txt(Name::from_string("example.com"),
                               "v=spf1 mx -all"));
  zone.add(ResourceRecord::cname(Name::from_string("www.example.com"),
                                 Name::from_string("example.com")));
  return zone;
}

TEST(Zone, LookupSuccess) {
  const Zone zone = make_example_zone();
  const auto result = zone.lookup(Name::from_string("example.com"), RRType::MX);
  EXPECT_EQ(result.status, LookupResult::Status::Success);
  ASSERT_EQ(result.records.size(), 1u);
}

TEST(Zone, LookupNoData) {
  const Zone zone = make_example_zone();
  const auto result =
      zone.lookup(Name::from_string("mx1.example.com"), RRType::TXT);
  EXPECT_EQ(result.status, LookupResult::Status::NoData);
}

TEST(Zone, LookupNxDomain) {
  const Zone zone = make_example_zone();
  const auto result =
      zone.lookup(Name::from_string("nope.example.com"), RRType::A);
  EXPECT_EQ(result.status, LookupResult::Status::NxDomain);
}

TEST(Zone, CnameChase) {
  const Zone zone = make_example_zone();
  const auto result =
      zone.lookup(Name::from_string("www.example.com"), RRType::A);
  EXPECT_EQ(result.status, LookupResult::Status::Success);
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[0].type, RRType::CNAME);
  EXPECT_EQ(result.records[1].type, RRType::A);
}

TEST(Zone, RejectsOutOfZoneRecord) {
  Zone zone(Name::from_string("example.com"));
  EXPECT_THROW(zone.add(ResourceRecord::a(Name::from_string("other.org"),
                                          IpAddress::v4(1, 2, 3, 4))),
               std::invalid_argument);
}

TEST(Zone, RemoveByType) {
  Zone zone = make_example_zone();
  zone.remove(Name::from_string("example.com"), RRType::MX);
  EXPECT_EQ(zone.lookup(Name::from_string("example.com"), RRType::MX).status,
            LookupResult::Status::NoData);
  // A record still present.
  EXPECT_EQ(zone.lookup(Name::from_string("example.com"), RRType::A).status,
            LookupResult::Status::Success);
}

// ---------------------------------------------------------------- server

TEST(Server, AnswersFromZone) {
  AuthoritativeServer server;
  server.add_zone(make_example_zone());
  util::SimClock clock;

  const Message query =
      Message::make_query(5, Name::from_string("example.com"), RRType::A);
  const Message response =
      server.handle(query, IpAddress::v4(198, 51, 100, 7), clock.now());
  EXPECT_EQ(response.header.rcode, Rcode::NoError);
  ASSERT_EQ(response.answers.size(), 1u);
  EXPECT_TRUE(response.header.qr);
  EXPECT_TRUE(response.header.aa);
}

TEST(Server, RefusesOffZoneQueries) {
  AuthoritativeServer server;
  server.add_zone(make_example_zone());
  util::SimClock clock;
  const Message query =
      Message::make_query(5, Name::from_string("elsewhere.net"), RRType::A);
  EXPECT_EQ(server.handle(query, IpAddress::v4(1, 1, 1, 1), clock.now())
                .header.rcode,
            Rcode::Refused);
}

TEST(Server, LogsEveryQuery) {
  AuthoritativeServer server;
  server.add_zone(make_example_zone());
  util::SimClock clock;
  const auto client = IpAddress::v4(203, 0, 113, 5);
  server.handle(Message::make_query(1, Name::from_string("example.com"),
                                    RRType::TXT),
                client, clock.now());
  server.handle(Message::make_query(2, Name::from_string("nope.example.com"),
                                    RRType::A),
                client, clock.now());
  ASSERT_EQ(server.query_log().size(), 2u);
  EXPECT_EQ(server.query_log().entries()[0].qtype, RRType::TXT);
  EXPECT_EQ(server.query_log().entries()[1].qname.to_string(),
            "nope.example.com");
  EXPECT_EQ(server.query_log().entries()[0].client, client);
}

TEST(Server, DynamicResponderWins) {
  AuthoritativeServer server;
  const Name base = Name::from_string("spf-test.dns-lab.org");
  server.add_responder(base, [&](const Name& qname, RRType qtype)
                                 -> std::optional<std::vector<ResourceRecord>> {
    if (qtype == RRType::A) {
      return std::vector{ResourceRecord::a(qname, IpAddress::v4(192, 0, 2, 99))};
    }
    return std::vector<ResourceRecord>{};
  });
  util::SimClock clock;
  const Message response = server.handle(
      Message::make_query(1, Name::from_string("anything.spf-test.dns-lab.org"),
                          RRType::A),
      IpAddress::v4(1, 2, 3, 4), clock.now());
  EXPECT_EQ(response.header.rcode, Rcode::NoError);
  ASSERT_EQ(response.answers.size(), 1u);
}

TEST(QueryLog, UnderFilter) {
  QueryLog log;
  log.record({0, IpAddress::v4(1, 1, 1, 1),
              Name::from_string("x.test.example"), RRType::A});
  log.record({1, IpAddress::v4(1, 1, 1, 1), Name::from_string("other.org"),
              RRType::A});
  const auto count_under = [&log](const Name& suffix) {
    std::size_t n = 0;
    log.for_each_under(suffix, [&n](const QueryLogEntry&) { ++n; });
    return n;
  };
  EXPECT_EQ(count_under(Name::from_string("test.example")), 1u);
  EXPECT_EQ(count_under(Name::root()), 2u);
}

// ---------------------------------------------------------------- resolver

TEST(Resolver, ResolvesAndCaches) {
  AuthoritativeServer server;
  server.add_zone(make_example_zone());
  util::SimClock clock;
  StubResolver resolver(server, clock, IpAddress::v4(198, 51, 100, 1));

  const auto r1 = resolver.query(Name::from_string("example.com"), RRType::A);
  EXPECT_TRUE(r1.ok());
  const auto r2 = resolver.query(Name::from_string("example.com"), RRType::A);
  EXPECT_TRUE(r2.ok());
  EXPECT_EQ(resolver.cache_hits(), 1u);
  EXPECT_EQ(resolver.cache_misses(), 1u);
  EXPECT_EQ(server.query_log().size(), 1u);  // second answer came from cache
}

TEST(Resolver, CacheExpires) {
  AuthoritativeServer server;
  server.add_zone(make_example_zone());
  util::SimClock clock;
  StubResolver resolver(server, clock, IpAddress::v4(198, 51, 100, 1));

  resolver.query(Name::from_string("example.com"), RRType::A);
  clock.advance_by(301);  // past the 300s TTL
  resolver.query(Name::from_string("example.com"), RRType::A);
  EXPECT_EQ(server.query_log().size(), 2u);
}

TEST(Resolver, CacheDisabled) {
  AuthoritativeServer server;
  server.add_zone(make_example_zone());
  util::SimClock clock;
  StubResolver resolver(server, clock, IpAddress::v4(198, 51, 100, 1),
                        /*enable_cache=*/false);
  resolver.query(Name::from_string("example.com"), RRType::A);
  resolver.query(Name::from_string("example.com"), RRType::A);
  EXPECT_EQ(server.query_log().size(), 2u);
}

TEST(Resolver, TypedHelpers) {
  AuthoritativeServer server;
  server.add_zone(make_example_zone());
  util::SimClock clock;
  StubResolver resolver(server, clock, IpAddress::v4(198, 51, 100, 1));

  const auto addrs = resolver.addresses(Name::from_string("example.com"));
  ASSERT_EQ(addrs.size(), 1u);
  EXPECT_EQ(addrs[0].to_string(), "192.0.2.1");

  const auto mx = resolver.mx(Name::from_string("example.com"));
  ASSERT_EQ(mx.size(), 1u);
  EXPECT_EQ(mx[0].exchange.to_string(), "mx1.example.com");

  const auto txt = resolver.txt(Name::from_string("example.com"));
  ASSERT_EQ(txt.size(), 1u);
  EXPECT_EQ(txt[0], "v=spf1 mx -all");
}

TEST(Resolver, MxSortedByPreference) {
  Zone zone(Name::from_string("m.example"));
  zone.add(ResourceRecord::mx(Name::from_string("m.example"), 20,
                              Name::from_string("b.m.example")));
  zone.add(ResourceRecord::mx(Name::from_string("m.example"), 5,
                              Name::from_string("a.m.example")));
  AuthoritativeServer server;
  server.add_zone(std::move(zone));
  util::SimClock clock;
  StubResolver resolver(server, clock, IpAddress::v4(1, 1, 1, 1));
  const auto mx = resolver.mx(Name::from_string("m.example"));
  ASSERT_EQ(mx.size(), 2u);
  EXPECT_EQ(mx[0].preference, 5);
}

}  // namespace
}  // namespace spfail::dns
