#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.h"

/// A traced ctrtl-serve/2 client built from the public protocol functions.
/// It does what `serve::ServeClient::run_job` does, but stamps the time each
/// frame crosses the socket and times the decode of every REPORT, which the
/// closed-loop client cannot expose.
namespace perfbench {

struct WireJob {
  bool done = false;  ///< DONE arrived (otherwise `error` says why)
  std::string error;
  ctrtl::serve::DonePayload done_payload;
  std::vector<ctrtl::serve::ReportPayload> reports;
  double admit_us = 0;         ///< SUBMIT written -> ACCEPTED read
  double first_report_us = 0;  ///< ACCEPTED -> first REPORT
  double stream_us = 0;        ///< first REPORT -> DONE
  double total_us = 0;         ///< SUBMIT written -> DONE read
  double decode_report_us = 0; ///< parse_report time summed over REPORTs
  std::uint64_t report_bytes = 0;  ///< REPORT payload bytes summed
};

class WireClient {
 public:
  WireClient() = default;
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Connects and exchanges HELLOs; throws `std::runtime_error` on failure.
  void connect(const std::string& socket_path);

  [[nodiscard]] WireJob run(const ctrtl::serve::JobRequest& request);

 private:
  void send(const ctrtl::serve::Frame& frame);
  [[nodiscard]] ctrtl::serve::Frame receive();

  int fd_ = -1;
  ctrtl::serve::FrameDecoder decoder_;
};

}  // namespace perfbench
