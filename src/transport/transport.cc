#include "transport/transport.h"

#include "support/macros.h"

namespace triad::transport {

/// BoundedQueue-backed channel for one ordered endpoint pair. send() counts
/// through the owning fabric so the fabric-wide counters see every message
/// regardless of which lane it crosses.
class LocalTransport::LocalChannel final : public Channel {
 public:
  LocalChannel(LocalTransport& owner, int src, int dst, std::size_t capacity)
      : owner_(owner), src_(src), dst_(dst), queue_(capacity) {}

  bool send(const TransportMessage& m) override {
    TRIAD_CHECK(m.src == src_ && m.dst == dst_,
                "transport: message addressed to wrong channel");
    owner_.messages_.fetch_add(1, std::memory_order_relaxed);
    owner_.bytes_.fetch_add(m.bytes, std::memory_order_relaxed);
    // The fabric is sized so producers never outrun consumers within one
    // exchange round; a full queue means a protocol bug, not backpressure,
    // so fail loudly instead of blocking the sender.
    bool ok = queue_.try_push(m);
    TRIAD_CHECK(ok, "transport: channel full or closed (protocol error)");
    return ok;
  }

  std::optional<TransportMessage> recv() override { return queue_.pop(); }
  std::optional<TransportMessage> try_recv() override {
    return queue_.try_pop();
  }
  void close() override { queue_.close(); }
  int src() const override { return src_; }
  int dst() const override { return dst_; }

 private:
  LocalTransport& owner_;
  int src_;
  int dst_;
  BoundedQueue<TransportMessage> queue_;
};

LocalTransport::LocalTransport(int endpoints, std::size_t channel_capacity)
    : endpoints_(endpoints), capacity_(channel_capacity) {
  TRIAD_CHECK(endpoints > 0, "transport: need at least one endpoint");
  channels_.reserve(static_cast<std::size_t>(endpoints) *
                    static_cast<std::size_t>(endpoints));
  for (int s = 0; s < endpoints; ++s)
    for (int d = 0; d < endpoints; ++d)
      channels_.push_back(
          std::make_unique<LocalChannel>(*this, s, d, capacity_));
}

LocalTransport::~LocalTransport() = default;

Channel& LocalTransport::channel(int src, int dst) {
  TRIAD_CHECK(src >= 0 && src < endpoints_ && dst >= 0 && dst < endpoints_,
              "transport: endpoint out of range");
  return *channels_[static_cast<std::size_t>(src) *
                        static_cast<std::size_t>(endpoints_) +
                    static_cast<std::size_t>(dst)];
}

void LocalTransport::close() {
  for (auto& ch : channels_) ch->close();
}

TransportStats LocalTransport::stats() const {
  TransportStats s;
  s.messages = messages_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace triad::transport
