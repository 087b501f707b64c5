// The paper's core technique, end to end: remotely detect a vulnerable
// libSPF2 installation with one benign SMTP probe.
//
//   $ ./detect_vulnerable_mta
//
// Builds three simulated MTAs (vulnerable libSPF2, RFC-compliant, and a
// non-compliant truncation-skipping validator), probes each with the NoMsg
// test, and prints the DNS queries the authoritative server observed along
// with the behaviour classification derived from them.
#include <iostream>

#include "mta/host.hpp"
#include "scan/prober.hpp"
#include "scan/test_responder.hpp"
#include "scan/usernames.hpp"

using namespace spfail;

int main() {
  dns::AuthoritativeServer server;
  util::SimClock clock;
  const scan::TestResponderConfig responder =
      scan::install_test_responder(server);

  scan::ProberConfig prober_config;
  prober_config.responder = responder;
  net::Transport transport(clock);
  scan::Prober prober(prober_config, server, transport);

  scan::LabelAllocator labels(util::Rng(7), responder.base);
  const std::string suite = labels.new_suite();

  struct Target {
    const char* description;
    spfvuln::SpfBehavior behavior;
    std::uint8_t last_octet;
  };
  const Target targets[] = {
      {"vulnerable libSPF2 1.2.10", spfvuln::SpfBehavior::VulnerableLibspf2, 10},
      {"RFC 7208-compliant validator", spfvuln::SpfBehavior::RfcCompliant, 11},
      {"non-compliant (no truncation)", spfvuln::SpfBehavior::NoTruncation, 12},
  };

  for (const Target& target : targets) {
    mta::HostProfile profile;
    profile.address = util::IpAddress::v4(203, 0, 113, target.last_octet);
    profile.behaviors = {target.behavior};
    mta::MailHost host(profile, server, clock);

    const dns::Name mail_from = labels.mail_from_domain(labels.new_id(), suite);
    std::cout << "Probing " << host.address().to_string() << " ("
              << target.description << ")\n"
              << "  MAIL FROM:<" << scan::kUsernameLadder[0] << "@"
              << mail_from.to_string() << ">\n"
              << "  Served policy: "
              << scan::test_policy_text(responder, mail_from) << "\n";

    const std::size_t log_before = server.query_log().size();
    const scan::ProbeResult result =
        prober.probe(host, "target.example", mail_from, scan::TestKind::NoMsg);

    std::cout << "  Queries observed at the authoritative server:\n";
    server.query_log().for_each_under_from(
        log_before, dns::Name::root(), [](const dns::QueryLogEntry& entry) {
          std::cout << "    " << to_string(entry.qtype) << "  "
                    << entry.qname.to_string() << "\n";
        });
    std::cout << "  Verdict: " << to_string(result.status);
    for (const auto behavior : result.behaviors) {
      std::cout << " [" << to_string(behavior) << "]";
    }
    std::cout << (result.vulnerable() ? "  << CVE-2021-33913 fingerprint"
                                      : "")
              << "\n\n";
  }
  return 0;
}
