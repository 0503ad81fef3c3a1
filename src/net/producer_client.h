// The producer half of the ingest plane: a remote stream generator
// that survives a lossy link (ingest_session.h is the server half).
//
// A ProducerClient is an EventSink, so anything that drives an
// in-process ingest boundary — StreamGenerator, a replayed capture —
// can publish over TCP instead by swapping the sink. Every event is
// wrapped in a GSF1 kIngest message under a per-source monotonic
// sequence number and kept in a bounded, byte-metered replay buffer
// until the server's cumulative ACK covers it:
//
//   * connection loss (including resets injected mid-frame, or a
//     server that poisons its decoder on a corrupted byte) triggers
//     reconnect with exponential backoff + deterministic jitter
//     (the PipelineSupervisor's backoff shape), an `ATTACH` handshake
//     that reveals the server's next expected sequence number, and
//     idempotent replay from exactly there — batches the server
//     already delivered are trimmed, never re-sent into the chain;
//   * acks lost in transit heal without reconnecting: when Flush sees
//     no ack progress it re-sends the unacked window and the server
//     re-acks duplicates cumulatively;
//   * a full replay buffer is backpressure — Publish pumps acks and,
//     failing that, surfaces ResourceExhausted to the caller instead
//     of buffering unboundedly (at-least-once, bounded memory);
//   * server NACKs are policy: a sequence gap rewinds the send
//     cursor; admission-control NACKs (ResourceExhausted) back off
//     and retry; quarantine NACKs (FailedPrecondition) surface to
//     the caller, who must arrange an admin `RESTART <source>`.
//
// At-least-once transport + server-side dedup = exactly-once delivery
// into the query chain, which the chaos tests audit by sequence.
//
// Synchronous and single-threaded by design (no writer/reader
// threads): determinism under fault injection matters more here than
// pipelining, and the send window still overlaps acks because acks
// are pumped opportunistically after every publish.

#ifndef GEOSTREAMS_NET_PRODUCER_CLIENT_H_
#define GEOSTREAMS_NET_PRODUCER_CLIENT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/flaky_socket.h"
#include "net/wire_protocol.h"
#include "stream/operator.h"

namespace geostreams {

struct ProducerClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// The source stream this producer feeds (must be registered with
  /// the server).
  std::string source;
  /// Replay buffer cap: encoded bytes of unacked messages held for
  /// retransmission. A publish that cannot make room (the server is
  /// not acking) fails with ResourceExhausted — bounded memory wins.
  size_t replay_max_bytes = 8u << 20;
  /// Bounds connect() and the ATTACH handshake per attempt.
  int connect_timeout_ms = 2000;
  /// Reconnect attempts per operation before giving up.
  int max_reconnect_attempts = 8;
  /// Backoff shape between reconnect attempts (supervisor.h).
  uint32_t backoff_initial_ms = 1;
  uint32_t backoff_max_ms = 200;
  uint32_t backoff_jitter_ms = 16;
  /// Flush re-sends the unacked window after this long without ack
  /// progress (heals dropped acks without a reconnect).
  int resend_timeout_ms = 250;
  /// Sliding ack window: maximum in-flight (sent but unacked)
  /// messages. Publish keeps streaming while the window has room and
  /// blocks — pumping acks, resending on stall, reconnecting on loss —
  /// only when it fills, so a healthy link pipelines `window_messages`
  /// batches deep instead of degrading to stop-and-wait. 0 = no
  /// message-count bound (the byte-metered replay buffer still
  /// bounds memory).
  size_t window_messages = 64;
  /// Shared producer credential appended to the ATTACH line
  /// (`ATTACH <source> <token>`); empty sends a bare ATTACH. Servers
  /// configured with a token reject mismatches with
  /// FailedPrecondition (surfaced from Connect — not retried).
  std::string auth_token;
  /// Fault injection applied to every connection this client opens
  /// (chaos tests). Default: no faults. The seed is varied per
  /// connection (seed + connection ordinal): identical schedules on
  /// every reconnect could deterministically re-kill each new
  /// connection at the same spot, which no amount of retrying escapes.
  FlakySocketOptions flaky;
  /// Stamp each published message with the producer's wall clock
  /// (kFlagCaptureTs) — the first anchor of the server's end-to-end
  /// latency plane. Costs 8 bytes per message; disable when talking
  /// to pre-flag servers that reject unknown payload layouts.
  bool stamp_capture_time = true;
};

struct ProducerClientStats {
  uint64_t published = 0;     // events accepted by Publish
  uint64_t acked = 0;         // highest cumulative ack seen
  uint64_t retransmits = 0;   // messages sent more than once
  uint64_t reconnects = 0;    // successful re-connections
  uint64_t nacks = 0;         // NACK lines processed
  uint64_t overload_nacks = 0;  // of those, admission refusals
  uint64_t window_stalls = 0;   // publishes that blocked on the window
};

class ProducerClient : public EventSink {
 public:
  explicit ProducerClient(ProducerClientOptions options);
  ~ProducerClient() override;

  ProducerClient(const ProducerClient&) = delete;
  ProducerClient& operator=(const ProducerClient&) = delete;

  /// Connects and performs the ATTACH handshake. Also called lazily
  /// by Publish; explicit use surfaces configuration errors early.
  Status Connect();

  /// Closes the connection. Unacked messages stay in the replay
  /// buffer and go out after the next Connect.
  void Close();

  /// EventSink: Publish.
  Status Consume(const StreamEvent& event) override {
    return Publish(event);
  }

  /// Assigns the next sequence number, sends the event, and
  /// opportunistically pumps acks. Transparent about transport
  /// trouble only when it becomes the caller's problem: transient
  /// loss is healed by reconnect + replay internally.
  Status Publish(const StreamEvent& event);

  /// Sends a liveness heartbeat (PING) so an idle but healthy
  /// producer is not quarantined by the server's idle timeout.
  Status Heartbeat();

  /// Blocks until every published message is acked (replay buffer
  /// empty) or `timeout_ms` passes (Unavailable). Re-sends the
  /// unacked window when acks stall; reconnects when the connection
  /// drops.
  Status Flush(int timeout_ms);

  /// Unacked messages currently held for replay.
  size_t unacked() const { return replay_.size(); }
  const ProducerClientStats& stats() const { return stats_; }
  /// Stats of the current connection's fault-injecting socket (null
  /// when disconnected). Chaos tests assert faults actually fired.
  const FlakySocketStats* socket_stats() const {
    return socket_ ? &socket_->stats() : nullptr;
  }
  /// Fault/IO counters summed over every connection this client has
  /// opened. Per-connection stats die with their socket on reconnect,
  /// so this aggregate is what chaos tests assert against.
  FlakySocketStats TotalSocketStats() const;

 private:
  struct Pending {
    uint64_t seq = 0;
    std::vector<uint8_t> bytes;  // encoded kIngest message
    bool sent = false;           // sent at least once (retransmit stat)
  };

  bool connected() const { return socket_ != nullptr && !socket_->broken(); }
  /// Connect + ATTACH once (no retries). On success trims the replay
  /// buffer to the server's expectation and re-sends the remainder.
  Status ConnectOnce();
  /// Backoff/retry wrapper around ConnectOnce.
  Status Reconnect();
  /// Sends one encoded message; on transport failure reconnects (the
  /// message is already in the replay buffer, so replay covers it).
  Status SendWithRecovery(const std::vector<uint8_t>& bytes);
  /// Re-sends every unacked message in order.
  Status ResendUnacked();
  /// Blocks until the in-flight window has room (acks arrive) or the
  /// stall budget runs out. No-op when window_messages is 0.
  Status AwaitWindow();
  /// Reads whatever response lines are available within `timeout_ms`
  /// and applies them, returning early once `done` (when given) holds
  /// — the timeout only bounds a wait with no ack progress. Transport
  /// errors propagate (callers decide whether to reconnect).
  Status PumpAcks(int timeout_ms, const std::function<bool()>& done = {});
  /// Applies one ACK/NACK/OK/ERR line from the server.
  Status ApplyLine(const std::string& line);
  /// Drops acked messages from the replay buffer.
  void TrimReplay(uint64_t acked_seq);
  /// Sends a text line (faults apply).
  Status SendLine(const std::string& line);
  /// Waits for a full text line (the ATTACH response) with deadline.
  Result<std::string> ReadLine(int timeout_ms);

  const ProducerClientOptions options_;
  /// Jitter token: distinct producers (host, port, source) jitter
  /// differently even with identical options.
  const uint64_t backoff_token_;

  std::unique_ptr<FlakySocket> socket_;
  /// Connections opened so far; varies the fault seed per connection.
  uint64_t connection_seq_ = 0;
  /// A successful connect after this is set counts as a reconnect —
  /// including losses noticed only after the socket was torn down.
  bool ever_connected_ = false;
  FrameDecoder decoder_;
  std::deque<Pending> replay_;
  size_t replay_bytes_ = 0;
  uint64_t next_seq_ = 1;  // next sequence number to assign
  uint64_t acked_ = 0;     // cumulative server ack
  /// Set by a gap NACK: ResendUnacked starts from here.
  uint64_t resend_from_ = 0;
  /// Last NACK that signals a caller-visible condition (quarantine,
  /// admission refusal); OK otherwise.
  Status last_nack_ = Status::OK();
  ProducerClientStats stats_;
  /// Socket counters accumulated from connections already closed.
  FlakySocketStats closed_socket_stats_;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_NET_PRODUCER_CLIENT_H_
