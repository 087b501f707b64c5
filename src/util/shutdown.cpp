#include "util/shutdown.hpp"

#include <csignal>

namespace spfail::util {

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

extern "C" void shutdown_handler(int) { g_shutdown = 1; }

}  // namespace

void install_shutdown_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = shutdown_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocking calls must wake with EINTR
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

bool shutdown_requested() noexcept { return g_shutdown != 0; }

void request_shutdown() noexcept { g_shutdown = 1; }

void clear_shutdown() noexcept { g_shutdown = 0; }

}  // namespace spfail::util
