#include "net/producer_client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/math_util.h"
#include "common/string_util.h"
#include "net/socket_util.h"
#include "obs/trace.h"
#include "stream/supervisor.h"

namespace geostreams {

namespace {

using Clock = std::chrono::steady_clock;

int RemainingMs(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    size_t j = i;
    while (j < line.size() && line[j] != ' ') ++j;
    if (j > i) out.push_back(line.substr(i, j - i));
    i = j;
  }
  return out;
}

/// Parses the trailing integer of a `key=value` token ("next=17").
bool ParseKeyedU64(const std::string& token, const char* key,
                   uint64_t* out) {
  const std::string prefix = std::string(key) + "=";
  if (token.rfind(prefix, 0) != 0) return false;
  const std::string digits = token.substr(prefix.size());
  if (digits.empty()) return false;
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

/// Maps the code name of an "ERR <Code> ..." / "NACK ... <Code> ..."
/// line back to a Status (the codes the ingest plane actually emits).
Status StatusFromWire(const std::string& code, std::string detail) {
  if (code == "NotFound") return Status::NotFound(std::move(detail));
  if (code == "InvalidArgument") {
    return Status::InvalidArgument(std::move(detail));
  }
  if (code == "FailedPrecondition") {
    return Status::FailedPrecondition(std::move(detail));
  }
  if (code == "ResourceExhausted") {
    return Status::ResourceExhausted(std::move(detail));
  }
  if (code == "OutOfRange") return Status::OutOfRange(std::move(detail));
  return Status::Unavailable(std::move(detail));
}

}  // namespace

ProducerClient::ProducerClient(ProducerClientOptions options)
    : options_(std::move(options)),
      backoff_token_(Mix64(std::hash<std::string>{}(options_.source) ^
                           (static_cast<uint64_t>(options_.port) << 32) ^
                           std::hash<std::string>{}(options_.host))) {}

ProducerClient::~ProducerClient() { Close(); }

namespace {

void AccumulateStats(const FlakySocketStats& from, FlakySocketStats* into) {
  into->writes += from.writes;
  into->partial_writes += from.partial_writes;
  into->corrupted_writes += from.corrupted_writes;
  into->resets += from.resets;
  into->reads += from.reads;
  into->dropped_reads += from.dropped_reads;
  into->delayed_reads += from.delayed_reads;
}

}  // namespace

void ProducerClient::Close() {
  if (socket_) {
    AccumulateStats(socket_->stats(), &closed_socket_stats_);
    socket_->Close();
  }
  socket_.reset();
  decoder_ = FrameDecoder();
}

FlakySocketStats ProducerClient::TotalSocketStats() const {
  FlakySocketStats total = closed_socket_stats_;
  if (socket_) AccumulateStats(socket_->stats(), &total);
  return total;
}

Status ProducerClient::SendLine(const std::string& line) {
  const std::string framed = line + "\n";
  return socket_->Write(reinterpret_cast<const uint8_t*>(framed.data()),
                        framed.size());
}

Result<std::string> ProducerClient::ReadLine(int timeout_ms) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  uint8_t buf[4096];
  for (;;) {
    for (;;) {
      Result<std::optional<FrameDecoder::Unit>> unit = decoder_.Next();
      if (!unit.ok()) return unit.status();
      if (!unit->has_value()) break;
      if ((*unit)->line) return *(*unit)->line;
      // Binary units (a result frame, if this connection also
      // subscribed) are not what a handshake waits for.
    }
    const int remaining = RemainingMs(deadline);
    if (remaining <= 0) {
      return Status::Unavailable(StringPrintf(
          "no server response within %d ms", timeout_ms));
    }
    GEOSTREAMS_ASSIGN_OR_RETURN(bool readable,
                                socket_->PollReadable(remaining));
    if (!readable) {
      return Status::Unavailable(StringPrintf(
          "no server response within %d ms", timeout_ms));
    }
    GEOSTREAMS_ASSIGN_OR_RETURN(size_t n, socket_->Read(buf, sizeof(buf)));
    if (n == 0) {
      return Status::Unavailable("server closed the connection");
    }
    decoder_.Feed(buf, n);
  }
}

Status ProducerClient::ConnectOnce() {
  Close();
  GEOSTREAMS_ASSIGN_OR_RETURN(
      int fd,
      ConnectTcp(options_.host, options_.port, options_.connect_timeout_ms));
  // Each connection gets its own fault schedule. Reusing the seed
  // verbatim would fault every connection at the same operation
  // offsets — e.g. a dropped read #0 would swallow the ATTACH reply
  // on every reconnect, a deterministic livelock no backoff escapes.
  FlakySocketOptions flaky = options_.flaky;
  flaky.seed = options_.flaky.seed + connection_seq_++;
  socket_ = std::make_unique<FlakySocket>(fd, flaky);
  decoder_ = FrameDecoder();
  std::string attach = "ATTACH " + options_.source;
  if (!options_.auth_token.empty()) attach += " " + options_.auth_token;
  GEOSTREAMS_RETURN_IF_ERROR(SendLine(attach));
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(
                         std::max(options_.connect_timeout_ms, 1));
  uint64_t next = 0;
  for (;;) {
    GEOSTREAMS_ASSIGN_OR_RETURN(std::string line,
                                ReadLine(RemainingMs(deadline)));
    std::vector<std::string> tokens = Tokens(line);
    if (tokens.size() >= 4 && tokens[0] == "OK" && tokens[1] == "ATTACH" &&
        tokens[2] == options_.source &&
        ParseKeyedU64(tokens[3], "next", &next)) {
      break;
    }
    if (!tokens.empty() && tokens[0] == "ERR") {
      const std::string code = tokens.size() > 1 ? tokens[1] : "";
      return StatusFromWire(code, "ATTACH refused: " + line);
    }
    // Anything else (stray acks from a shared connection) is skipped.
  }
  if (next == 0) {
    return Status::Internal("ATTACH handshake returned next=0");
  }
  // The server's expectation is authoritative. Everything below it is
  // delivered — trim it so replay stays idempotent; everything at or
  // above it that we still hold goes out again.
  if (!replay_.empty() && next < replay_.front().seq) {
    return Status::FailedPrecondition(StringPrintf(
        "server expects seq %llu but replay starts at %llu "
        "(server-side ingest state was lost)",
        static_cast<unsigned long long>(next),
        static_cast<unsigned long long>(replay_.front().seq)));
  }
  if (replay_.empty() && next < next_seq_) {
    return Status::FailedPrecondition(StringPrintf(
        "server expects seq %llu but %llu were already acked "
        "(server-side ingest state was lost)",
        static_cast<unsigned long long>(next),
        static_cast<unsigned long long>(next_seq_ - 1)));
  }
  if (next > next_seq_) next_seq_ = next;  // adopt an older incarnation
  TrimReplay(next - 1);
  resend_from_ = 0;
  return ResendUnacked();
}

Status ProducerClient::Reconnect() {
  const bool was_connected = ever_connected_;
  Status last = Status::Unavailable("not connected");
  const int attempts = std::max(options_.max_reconnect_attempts, 1);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const uint32_t delay = BackoffDelayMs(
        options_.backoff_initial_ms, options_.backoff_max_ms,
        options_.backoff_jitter_ms, backoff_token_, attempt);
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    last = ConnectOnce();
    if (last.ok()) {
      if (was_connected) ++stats_.reconnects;
      ever_connected_ = true;
      return Status::OK();
    }
    if (last.code() == StatusCode::kInvalidArgument ||
        last.code() == StatusCode::kNotFound ||
        last.code() == StatusCode::kFailedPrecondition) {
      break;  // not transient: retrying cannot help
    }
  }
  Close();
  return last;
}

void ProducerClient::TrimReplay(uint64_t acked_seq) {
  while (!replay_.empty() && replay_.front().seq <= acked_seq) {
    replay_bytes_ -= replay_.front().bytes.size();
    replay_.pop_front();
  }
  if (acked_seq > acked_) {
    acked_ = acked_seq;
    stats_.acked = acked_;
  }
}

Status ProducerClient::ApplyLine(const std::string& line) {
  std::vector<std::string> tokens = Tokens(line);
  if (tokens.size() >= 3 && tokens[0] == "ACK" &&
      tokens[1] == options_.source) {
    uint64_t upto = 0;
    for (char c : tokens[2]) {
      if (c < '0' || c > '9') return Status::OK();  // malformed; skip
      upto = upto * 10 + static_cast<uint64_t>(c - '0');
    }
    TrimReplay(upto);
    return Status::OK();
  }
  if (tokens.size() >= 4 && tokens[0] == "NACK" &&
      tokens[1] == options_.source) {
    ++stats_.nacks;
    const std::string& code = tokens[3];
    std::string detail;
    for (size_t i = 4; i < tokens.size(); ++i) {
      if (!detail.empty()) detail += ' ';
      detail += tokens[i];
    }
    if (code == "OutOfRange") {
      // Sequence gap: the server tells us where to rewind.
      uint64_t expected = 0;
      for (size_t i = 4; i < tokens.size(); ++i) {
        if (ParseKeyedU64(tokens[i], "expected", &expected)) break;
      }
      if (expected > 0) {
        TrimReplay(expected - 1);  // it has everything below
        resend_from_ = expected;
      }
      return Status::OK();
    }
    if (code == "ResourceExhausted") ++stats_.overload_nacks;
    last_nack_ = StatusFromWire(code, std::move(detail));
    return Status::OK();
  }
  // "OK PONG", "OK ATTACH ...", "ERR ..." for commands we did not
  // send on this plane: nothing to do.
  return Status::OK();
}

Status ProducerClient::PumpAcks(int timeout_ms,
                                const std::function<bool()>& done) {
  if (!connected()) return Status::Unavailable("not connected");
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(std::max(timeout_ms, 0));
  uint8_t buf[4096];
  for (;;) {
    for (;;) {
      Result<std::optional<FrameDecoder::Unit>> unit = decoder_.Next();
      if (!unit.ok()) return unit.status();  // framing lost: reconnect
      if (!unit->has_value()) break;
      if ((*unit)->line) {
        GEOSTREAMS_RETURN_IF_ERROR(ApplyLine(*(*unit)->line));
      }
    }
    if (done && done()) return Status::OK();
    const int remaining = timeout_ms <= 0 ? 0 : RemainingMs(deadline);
    GEOSTREAMS_ASSIGN_OR_RETURN(bool readable,
                                socket_->PollReadable(remaining));
    if (!readable) return Status::OK();
    GEOSTREAMS_ASSIGN_OR_RETURN(size_t n, socket_->Read(buf, sizeof(buf)));
    if (n == 0) return Status::Unavailable("server closed the connection");
    decoder_.Feed(buf, n);
  }
}

Status ProducerClient::ResendUnacked() {
  const uint64_t from = std::max(resend_from_, acked_ + 1);
  resend_from_ = 0;
  for (Pending& pending : replay_) {
    if (pending.seq < from) continue;
    if (pending.sent) ++stats_.retransmits;
    GEOSTREAMS_RETURN_IF_ERROR(
        socket_->Write(pending.bytes.data(), pending.bytes.size()));
    pending.sent = true;
  }
  return Status::OK();
}

Status ProducerClient::AwaitWindow() {
  if (options_.window_messages == 0 ||
      replay_.size() < options_.window_messages) {
    return Status::OK();
  }
  ++stats_.window_stalls;
  uint64_t progress_mark = acked_;
  int stalls = 0;
  auto has_room = [this] {
    return replay_.size() < options_.window_messages;
  };
  while (!has_room()) {
    if (!connected()) GEOSTREAMS_RETURN_IF_ERROR(Reconnect());
    Status pumped = PumpAcks(options_.resend_timeout_ms, has_room);
    if (!pumped.ok()) {
      Close();
      continue;
    }
    if (acked_ > progress_mark) {
      progress_mark = acked_;
      stalls = 0;
      continue;
    }
    if (last_nack_.code() == StatusCode::kFailedPrecondition) {
      Status verdict = last_nack_;
      last_nack_ = Status::OK();
      return verdict;
    }
    if (stalls >= std::max(options_.max_reconnect_attempts, 1)) {
      return Status::ResourceExhausted(StringPrintf(
          "ack window full: %zu in flight (cap %zu), no ack progress",
          replay_.size(), options_.window_messages));
    }
    // A full resend window with no progress: the acks (or batches)
    // were lost. Back off and re-send — duplicates are re-acked.
    const uint32_t delay = BackoffDelayMs(
        options_.backoff_initial_ms, options_.backoff_max_ms,
        options_.backoff_jitter_ms, backoff_token_, stalls);
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    ++stalls;
    Status resent = ResendUnacked();
    if (!resent.ok()) Close();
  }
  return Status::OK();
}

Status ProducerClient::SendWithRecovery(const std::vector<uint8_t>& bytes) {
  if (connected()) {
    Status sent = socket_->Write(bytes.data(), bytes.size());
    if (sent.ok()) return sent;
  }
  // The connection is gone mid-stream. The message is already in the
  // replay buffer, so reconnecting replays it (and everything else
  // unacked) — the caller never sees transient loss.
  return Reconnect();
}

Status ProducerClient::Connect() { return Reconnect(); }

Status ProducerClient::Publish(const StreamEvent& event) {
  if (!connected()) GEOSTREAMS_RETURN_IF_ERROR(Reconnect());
  IngestMessage message;
  message.source = options_.source;
  message.seq = next_seq_;
  if (options_.stamp_capture_time) {
    message.capture_wall_us = TraceWallNowUs();
  }
  message.event = event;
  Pending pending;
  pending.seq = next_seq_;
  pending.bytes = EncodeIngestMessage(message);
  if (pending.bytes.size() > options_.replay_max_bytes) {
    return Status::InvalidArgument(StringPrintf(
        "event encodes to %zu bytes, beyond the whole replay budget %zu",
        pending.bytes.size(), options_.replay_max_bytes));
  }
  if (replay_bytes_ + pending.bytes.size() > options_.replay_max_bytes) {
    // Backpressure: wait once for acks to free room, then push the
    // problem to the caller rather than grow without bound.
    const size_t need = pending.bytes.size();
    auto has_room = [this, need] {
      return replay_bytes_ + need <= options_.replay_max_bytes;
    };
    Status pumped = PumpAcks(options_.resend_timeout_ms, has_room);
    if (!pumped.ok()) {
      GEOSTREAMS_RETURN_IF_ERROR(Reconnect());
      Status retried = PumpAcks(options_.resend_timeout_ms, has_room);
      (void)retried;
    }
    if (replay_bytes_ + pending.bytes.size() > options_.replay_max_bytes) {
      return Status::ResourceExhausted(StringPrintf(
          "replay buffer full: %zu bytes unacked (cap %zu), server is "
          "not acking",
          replay_bytes_, options_.replay_max_bytes));
    }
  }
  // The in-flight window: block for acks only when it is full, so a
  // healthy link pipelines window_messages batches deep.
  GEOSTREAMS_RETURN_IF_ERROR(AwaitWindow());
  // The sequence number is consumed only now: a publish that failed
  // above burned nothing, so the stream stays gapless.
  ++next_seq_;
  ++stats_.published;
  replay_bytes_ += pending.bytes.size();
  replay_.push_back(std::move(pending));
  GEOSTREAMS_RETURN_IF_ERROR(SendWithRecovery(replay_.back().bytes));
  replay_.back().sent = true;
  Status pumped = PumpAcks(0);
  if (!pumped.ok()) {
    // Framing or transport trouble while draining acks: drop the
    // connection; the next publish (or Flush) reconnects and replays.
    Close();
  }
  if (last_nack_.code() == StatusCode::kFailedPrecondition) {
    // Quarantined: buffered but going nowhere until an admin RESTART.
    // Do not republish this event — Flush resumes delivery.
    Status verdict = last_nack_;
    last_nack_ = Status::OK();
    return verdict;
  }
  return Status::OK();
}

Status ProducerClient::Heartbeat() {
  if (!connected()) GEOSTREAMS_RETURN_IF_ERROR(Reconnect());
  Status sent = SendLine("PING");
  if (!sent.ok()) GEOSTREAMS_RETURN_IF_ERROR(Reconnect());
  Status pumped = PumpAcks(0);
  if (!pumped.ok()) Close();
  return Status::OK();
}

Status ProducerClient::Flush(int timeout_ms) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(std::max(timeout_ms, 0));
  uint64_t progress_mark = acked_;
  int stalls = 0;
  while (!replay_.empty()) {
    if (RemainingMs(deadline) == 0) {
      if (!last_nack_.ok()) {
        Status verdict = last_nack_;
        last_nack_ = Status::OK();
        return verdict;
      }
      return Status::Unavailable(StringPrintf(
          "flush timed out with %zu messages unacked", replay_.size()));
    }
    if (!connected()) {
      Status reconnected = Reconnect();
      if (!reconnected.ok()) {
        if (reconnected.code() == StatusCode::kFailedPrecondition ||
            reconnected.code() == StatusCode::kNotFound ||
            reconnected.code() == StatusCode::kInvalidArgument) {
          return reconnected;  // retrying cannot help
        }
        continue;  // transient; the deadline bounds us
      }
    }
    const int wait =
        std::min(std::max(options_.resend_timeout_ms, 1),
                 std::max(RemainingMs(deadline), 1));
    Status pumped = PumpAcks(wait, [this] { return replay_.empty(); });
    if (!pumped.ok()) {
      Close();
      continue;
    }
    if (acked_ > progress_mark) {
      progress_mark = acked_;
      stalls = 0;
      last_nack_ = Status::OK();
      continue;
    }
    if (last_nack_.code() == StatusCode::kFailedPrecondition) {
      // Quarantine needs an admin, not a retry loop.
      Status verdict = last_nack_;
      last_nack_ = Status::OK();
      return verdict;
    }
    // No ack progress inside a full resend window: the acks (or the
    // batches) were lost, or the server is shedding under overload.
    // Back off, then re-send the window — the server re-acks
    // duplicates, so this converges either way.
    const uint32_t delay = BackoffDelayMs(
        options_.backoff_initial_ms, options_.backoff_max_ms,
        options_.backoff_jitter_ms, backoff_token_, stalls);
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    ++stalls;
    Status resent = ResendUnacked();
    if (!resent.ok()) Close();
  }
  return Status::OK();
}

}  // namespace geostreams
