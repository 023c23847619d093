// Cooperative cancellation for synthesis jobs.
//
// A CancelToken is a small shared flag a driver (the serve daemon's job
// engine, or the CLI's signal handler) trips to ask a running synthesis
// to stop. The synthesis hot loops never poll it; only the *serial*
// control points do -- the improvement engine between moves and passes
// (in each concurrently running operating-point task), the synthesizer
// between probed clocks -- so cancellation costs
// nothing until it happens and a cancelled run unwinds via the Cancelled
// exception from a well-defined boundary (no torn datapaths escape:
// everything under the unwound frames is owned by them).
//
// Three ways a token trips:
//   * request(reason): explicit (client cancel request, shutdown),
//   * a deadline set with set_deadline_after_ms (per-job time budgets),
//   * link_to_signals(): the process-wide SIGINT/SIGTERM note (the CLI
//     links its token so ^C cancels the in-flight run, letting main
//     flush observability exports before exiting).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

namespace hsyn::runtime {

/// Thrown by throw_if_cancelled(); carries the cancellation reason.
class Cancelled : public std::runtime_error {
 public:
  explicit Cancelled(const std::string& reason) : std::runtime_error(reason) {}
};

class CancelToken {
 public:
  /// Trip the token explicitly. The first reason wins.
  void request(const std::string& reason);

  /// Trip automatically once `ms` milliseconds of steady-clock time have
  /// elapsed from now (per-job time budget). ms <= 0 clears the deadline.
  void set_deadline_after_ms(std::int64_t ms);

  /// Also consider the process-wide signal note (note_signal) a trip.
  void link_to_signals() { signal_linked_.store(true, std::memory_order_relaxed); }

  bool cancelled() const;

  /// Why the token tripped ("" when it has not).
  std::string reason() const;

  /// Throw Cancelled when tripped; the cheap serial checkpoint.
  void throw_if_cancelled() const;

 private:
  std::atomic<bool> flag_{false};
  std::atomic<std::int64_t> deadline_ns_{0};  ///< steady-clock ns; 0 = none
  std::atomic<bool> signal_linked_{false};
  mutable std::mutex mu_;
  std::string reason_;
};

/// Record that `sig` was received (async-signal-safe; called from the
/// SIGINT/SIGTERM handlers installed by install_signal_handlers()).
void note_signal(int sig);

/// The last signal recorded by note_signal (0 = none).
int signal_received();

/// Install SIGINT and SIGTERM handlers that call note_signal. Idempotent.
void install_signal_handlers();

}  // namespace hsyn::runtime
