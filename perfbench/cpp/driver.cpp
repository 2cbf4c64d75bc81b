#include "driver.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <memory>
#include <stdexcept>
#include <system_error>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

/// One client connection with its own read and write buffers.
class Conn {
 public:
  explicit Conn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::system_error(errno, std::generic_category(), "socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      const int e = errno;
      ::close(fd_);
      throw std::system_error(e, std::generic_category(), "connect");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  std::string& out() { return wbuf_; }
  [[nodiscard]] bool want_write() const { return woff_ < wbuf_.size(); }

  /// Writes as much buffered output as the socket takes; false on error.
  bool flush() {
    while (woff_ < wbuf_.size()) {
      const ssize_t n = ::send(fd_, wbuf_.data() + woff_, wbuf_.size() - woff_,
                               MSG_NOSIGNAL);
      if (n > 0) {
        woff_ += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    if (woff_ == wbuf_.size()) {
      wbuf_.clear();
      woff_ = 0;
    }
    return true;
  }

  /// Reads what is available and calls fn(line) per complete line; false
  /// on EOF or error.
  template <typename F>
  bool read_lines(F&& fn) {
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        rbuf_.append(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof buf) break;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = rbuf_.find('\n', start);
      if (nl == std::string::npos) break;
      fn(std::string_view(rbuf_).substr(start, nl - start));
      start = nl + 1;
    }
    rbuf_.erase(0, start);
    return true;
  }

 private:
  int fd_ = -1;
  std::string wbuf_;
  std::size_t woff_ = 0;
  std::string rbuf_;
};

/// Requests in flight, indexed by sequence number modulo a power-of-two
/// capacity fixed per phase, so the driver's memory does not grow with
/// throughput.
class InFlight {
 public:
  struct Slot {
    std::uint64_t seq = 0;
    std::int64_t t_ns = 0;  // send time (closed) or due time (open)
    std::uint32_t tmpl = 0;
    bool busy = false;
  };

  explicit InFlight(std::size_t min_capacity)
      : ring_(std::bit_ceil(std::max<std::size_t>(min_capacity, 1024))),
        mask_(ring_.size() - 1) {}

  /// False, tracking nothing, when the slot is still taken (the oldest
  /// request in flight is a whole capacity behind the newest); the answer
  /// then settles as unknown and fails the run.
  bool add(std::uint64_t seq, std::uint32_t tmpl, std::int64_t t_ns) {
    Slot& s = ring_[seq & mask_];
    if (s.busy) return false;
    s = Slot{seq, t_ns, tmpl, true};
    ++count_;
    return true;
  }

  /// The in-flight slot for `seq`, released; null for an id that is not in
  /// flight (a duplicate answer or one the driver never sent).
  const Slot* take(std::uint64_t seq) {
    Slot& s = ring_[seq & mask_];
    if (!s.busy || s.seq != seq) return nullptr;
    s.busy = false;
    --count_;
    return &s;
  }

  [[nodiscard]] std::size_t count() const { return count_; }

 private:
  std::vector<Slot> ring_;
  std::size_t mask_;
  std::size_t count_ = 0;
};

std::vector<std::unique_ptr<Conn>> connect_all(std::uint16_t port, int n) {
  std::vector<std::unique_ptr<Conn>> conns;
  for (int i = 0; i < n; ++i) conns.push_back(std::make_unique<Conn>(port));
  return conns;
}

/// Polls every connection for input (and output when buffered), for at
/// most timeout_ns.  Returns the number of ready connections.
int wait_io(std::vector<std::unique_ptr<Conn>>& conns, std::int64_t timeout_ns) {
  std::vector<pollfd> fds;
  fds.reserve(conns.size());
  for (const auto& c : conns) {
    fds.push_back(pollfd{c->fd(), static_cast<short>(
                                      POLLIN | (c->want_write() ? POLLOUT : 0)),
                         0});
  }
  timespec ts{};
  timeout_ns = std::max<std::int64_t>(timeout_ns, 0);
  ts.tv_sec = timeout_ns / 1'000'000'000;
  ts.tv_nsec = timeout_ns % 1'000'000'000;
  return ::ppoll(fds.data(), fds.size(), &ts, nullptr);
}

/// The open loop's and the one-at-a-time sweeps' wait.  With busy_poll,
/// wait_io without sleeping: polls with a zero timeout until a connection
/// is ready or timeout_ns has passed, so that the generator's own wake-up
/// from idle -- tens of microseconds, and erratic, on a virtual CPU -- is
/// not charged to the server.
void await_io(std::vector<std::unique_ptr<Conn>>& conns, std::int64_t timeout_ns,
              bool busy_poll) {
  if (!busy_poll) {
    wait_io(conns, timeout_ns);
    return;
  }
  const std::int64_t until = now_ns() + timeout_ns;
  while (wait_io(conns, 0) == 0 && now_ns() < until) {
  }
}

/// Matches one answer line against the in-flight table and the golden
/// table.  Returns the released slot (null for an unknown or duplicate id)
/// and sets *ok to whether the answer was correct.
const InFlight::Slot* settle(std::string_view line, InFlight& inflight,
                             const Traffic& traffic, Tally& tally, bool* ok) {
  const Answer a = parse_answer(line);
  std::uint64_t seq = 0;
  *ok = false;
  if (!parse_seq(a.id, &seq)) {
    tally.fail(1, "answer without a known id: " + std::string(line));
    return nullptr;
  }
  const InFlight::Slot* slot = inflight.take(seq);
  if (slot == nullptr) {
    tally.fail(1, "duplicate or unknown answer: " + std::string(line));
    return nullptr;
  }
  *ok = traffic.check(slot->tmpl, a);
  if (!*ok) tally.fail(1, "wrong answer: " + std::string(line));
  return slot;
}

constexpr std::int64_t kDrainNs = 10'000'000'000;  // answer-by after a phase

/// Reads every connection; false when one was closed or failed.
template <typename F>
bool read_all(std::vector<std::unique_ptr<Conn>>& conns, F&& on_line) {
  for (std::size_t c = 0; c < conns.size(); ++c) {
    if (!conns[c]->read_lines([&](std::string_view line) { on_line(c, line); })) {
      return false;
    }
  }
  return true;
}

bool flush_all(std::vector<std::unique_ptr<Conn>>& conns) {
  for (auto& c : conns) {
    if (!c->flush()) return false;
  }
  return true;
}

}  // namespace

ClosedResult run_closed(std::uint16_t port, Traffic& traffic, int connections,
                        int window, double seconds) {
  ClosedResult res;
  auto conns = connect_all(port, connections);
  std::vector<int> outstanding(conns.size(), 0);
  InFlight inflight(conns.size() * static_cast<std::size_t>(window) * 64);
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t answered = 0;  // while sending
  for (;;) {
    const std::int64_t now = now_ns();
    const bool sending = now < end;
    if ((!sending && inflight.count() == 0) || now >= end + kDrainNs) break;
    for (std::size_t c = 0; sending && c < conns.size(); ++c) {
      while (outstanding[c] < window) {
        const Traffic::Next n = traffic.next();
        traffic.append_line(n, conns[c]->out());
        inflight.add(n.seq, n.tmpl, now);
        ++outstanding[c];
        ++res.tally.attempted;
      }
    }
    if (!flush_all(conns)) break;
    wait_io(conns, 5'000'000);
    const bool still_sending = now_ns() < end;
    const bool alive = read_all(conns, [&](std::size_t c, std::string_view line) {
      bool ok = false;
      if (settle(line, inflight, traffic, res.tally, &ok) != nullptr) {
        --outstanding[c];
        if (still_sending) ++answered;
      }
    });
    if (!alive) break;
  }
  res.qps = static_cast<double>(answered) / seconds;
  if (inflight.count() > 0) {
    res.tally.fail(inflight.count(), "requests never answered");
  }
  return res;
}

OpenResult run_open(std::uint16_t port, Traffic& traffic, int connections,
                    double rate, double seconds) {
  OpenResult res;
  auto conns = connect_all(port, connections);
  const auto total = static_cast<std::uint64_t>(rate * seconds);
  InFlight inflight(total);  // every request of the phase fits
  const double period_ns = 1e9 / rate;
  const std::int64_t t0 = now_ns() + 1'000'000;
  const std::int64_t phase_end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  auto due = [&](std::uint64_t k) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(k) * period_ns);
  };
  std::vector<double> lat;
  lat.reserve(total + 16);
  std::vector<double> late;
  late.reserve(total);
  std::uint64_t k = 0;
  bool backlog_taken = false;
  bool alive = true;
  for (;;) {
    std::int64_t now = now_ns();
    while (k < total && due(k) <= now) {
      const Traffic::Next n = traffic.next();
      const std::size_t c = k % conns.size();
      traffic.append_line(n, conns[c]->out());
      inflight.add(n.seq, n.tmpl, due(k));
      late.push_back(static_cast<double>(now - due(k)) / 1e6);
      ++res.tally.attempted;
      ++k;
    }
    if (!flush_all(conns)) alive = false;
    if (!backlog_taken && now >= phase_end) {
      res.backlog_end = inflight.count();
      backlog_taken = true;
    }
    if (!alive || (k >= total && inflight.count() == 0 && backlog_taken) ||
        now >= phase_end + kDrainNs) {
      break;
    }
    std::int64_t wait = 5'000'000;
    if (k < total) wait = std::min(wait, due(k) - now);
    if (!backlog_taken) wait = std::min(wait, phase_end - now);
    await_io(conns, wait, traffic.workload().busy_poll);
    now = now_ns();
    alive = read_all(conns, [&](std::size_t, std::string_view line) {
      bool ok = false;
      const InFlight::Slot* slot = settle(line, inflight, traffic, res.tally, &ok);
      if (slot == nullptr) return;
      lat.push_back(ok ? due_latency(static_cast<double>(slot->t_ns) / 1e6,
                                     static_cast<double>(now) / 1e6)
                       : kMissed);
    });
  }
  if (inflight.count() > 0) {
    lat.insert(lat.end(), inflight.count(), kMissed);
    res.tally.fail(inflight.count(), "requests never answered");
  }
  std::sort(lat.begin(), lat.end());
  res.lat_ms = std::move(lat);
  std::sort(late.begin(), late.end());
  res.late_p99_ms = tail_percentile(late, 0.99);
  return res;
}

std::vector<double> run_serial(std::uint16_t port, Traffic& traffic,
                               const std::vector<std::uint32_t>& tmpls,
                               Tally* tally) {
  std::vector<std::unique_ptr<Conn>> conns;
  conns.push_back(std::make_unique<Conn>(port));
  Conn& conn = *conns.front();
  InFlight inflight(tmpls.size());
  std::vector<double> lat;
  lat.reserve(tmpls.size());
  for (std::uint32_t tmpl : tmpls) {
    const Traffic::Next n = traffic.make(tmpl);
    traffic.append_line(n, conn.out());
    const std::int64_t sent = now_ns();
    inflight.add(n.seq, n.tmpl, sent);
    ++tally->attempted;
    double got = kMissed;
    bool done = false;
    while (!done && now_ns() < sent + kDrainNs) {
      if (!conn.flush()) break;
      await_io(conns, 50'000'000, traffic.workload().busy_poll);
      const std::int64_t now = now_ns();
      const bool alive = conn.read_lines([&](std::string_view line) {
        bool ok = false;
        if (settle(line, inflight, traffic, *tally, &ok) != nullptr) {
          done = true;
          if (ok) got = static_cast<double>(now - sent) / 1e6;
        }
      });
      if (!alive) break;
    }
    if (!done) {
      tally->fail(1, "request never answered");
      inflight.take(n.seq);
    }
    lat.push_back(got);
  }
  return lat;
}

std::string control_roundtrip(std::uint16_t port, const std::string& line) {
  std::vector<std::unique_ptr<Conn>> conns;
  conns.push_back(std::make_unique<Conn>(port));
  Conn& conn = *conns.front();
  conn.out() = line + "\n";
  std::string answer;
  bool done = false;
  const std::int64_t give_up = now_ns() + kDrainNs;
  while (!done && now_ns() < give_up) {
    if (!conn.flush()) break;
    wait_io(conns, 50'000'000);
    if (!conn.read_lines([&](std::string_view l) {
          if (!done) answer = std::string(l);
          done = true;
        })) {
      break;
    }
  }
  if (!done) throw std::runtime_error("no answer to " + line);
  return answer;
}

}  // namespace perfbench
