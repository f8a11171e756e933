#include "wire.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace serve = ctrtl::serve;

namespace {

double micros_since(std::chrono::steady_clock::time_point from,
                    std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

WireClient::~WireClient() {
  if (fd_ >= 0) {
    close(fd_);
  }
}

void WireClient::connect(const std::string& socket_path) {
  fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (fd_ < 0 || socket_path.size() >= sizeof address.sun_path) {
    throw std::runtime_error("wire: bad socket");
  }
  std::memcpy(address.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                sizeof address) != 0) {
    throw std::runtime_error("wire: connect failed: " +
                             std::string(std::strerror(errno)));
  }
  send(serve::Frame{serve::MessageType::kHello,
                    serve::encode_hello(serve::HelloPayload{})});
  if (receive().type != serve::MessageType::kHello) {
    throw std::runtime_error("wire: no HELLO reply");
  }
}

void WireClient::send(const serve::Frame& frame) {
  const std::string bytes = serve::encode_frame(frame);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      throw std::runtime_error("wire: write failed");
    }
    sent += static_cast<std::size_t>(n);
  }
}

serve::Frame WireClient::receive() {
  serve::Frame frame;
  char buffer[65536];
  while (!decoder_.next(&frame)) {
    if (decoder_.failed()) {
      throw std::runtime_error("wire: " + decoder_.error());
    }
    const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
    if (n <= 0) {
      throw std::runtime_error("wire: connection closed");
    }
    decoder_.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
  }
  return frame;
}

WireJob WireClient::run(const serve::JobRequest& request) {
  using Clock = std::chrono::steady_clock;
  WireJob job;
  const Clock::time_point submitted = Clock::now();
  send(serve::Frame{serve::MessageType::kSubmit, serve::encode_submit(request)});
  Clock::time_point accepted = submitted;
  Clock::time_point first_report{};
  for (;;) {
    const serve::Frame frame = receive();
    const Clock::time_point now = Clock::now();
    std::string error;
    switch (frame.type) {
      case serve::MessageType::kAccepted:
        accepted = now;
        job.admit_us = micros_since(submitted, now);
        break;
      case serve::MessageType::kReport: {
        if (job.reports.empty()) {
          first_report = now;
          job.first_report_us = micros_since(accepted, now);
        }
        serve::ReportPayload report;
        const Clock::time_point decode_start = Clock::now();
        const bool parsed = serve::parse_report(frame.payload, &report, &error);
        job.decode_report_us += micros_since(decode_start, Clock::now());
        job.report_bytes += frame.payload.size();
        if (!parsed) {
          job.error = "bad REPORT: " + error;
          return job;
        }
        job.reports.push_back(std::move(report));
        break;
      }
      case serve::MessageType::kDone:
        job.total_us = micros_since(submitted, now);
        job.stream_us = job.reports.empty() ? 0.0 : micros_since(first_report, now);
        job.done = serve::parse_done(frame.payload, &job.done_payload, &error);
        if (!job.done) {
          job.error = "bad DONE: " + error;
        }
        return job;
      default:
        job.error = "unexpected " + serve::to_string(frame.type) + " frame: " +
                    frame.payload;
        return job;
    }
  }
}

}  // namespace perfbench
