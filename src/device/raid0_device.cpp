#include "device/raid0_device.h"

#include <algorithm>
#include <unordered_map>

namespace blaze::device {

Raid0Device::Raid0Device(
    std::vector<std::shared_ptr<BlockDevice>> children)
    : name_("raid0"), children_(std::move(children)), stats_(0) {
  BLAZE_CHECK(!children_.empty(), "Raid0Device needs at least one child");
  for (const auto& c : children_) {
    BLAZE_CHECK(c->size() == children_[0]->size(),
                "Raid0Device children must be equal size");
    BLAZE_CHECK(c->size() % kPageSize == 0,
                "Raid0Device child size must be page aligned");
    size_ += c->size();
  }
}

std::pair<std::size_t, std::uint64_t> Raid0Device::map(
    std::uint64_t offset) const {
  std::uint64_t page = offset / kPageSize;
  std::uint64_t in_page = offset % kPageSize;
  std::size_t child = page % children_.size();
  std::uint64_t child_page = page / children_.size();
  return {child, child_page * kPageSize + in_page};
}

void Raid0Device::read(std::uint64_t offset, std::span<std::byte> out) {
  BLAZE_CHECK(offset + out.size() <= size_, "Raid0Device read out of range");
  std::size_t done = 0;
  while (done < out.size()) {
    auto [child, child_off] = map(offset + done);
    std::uint64_t page_remaining = kPageSize - (offset + done) % kPageSize;
    std::size_t len = std::min<std::size_t>(page_remaining,
                                            out.size() - done);
    children_[child]->read(child_off, out.subspan(done, len));
    done += len;
  }
  stats_.record_read(out.size(), 0);
}

namespace {

/// Fans submissions out to per-child channels; completions are reaped from
/// all children. Multi-page reads that span children are split and the
/// parent's user tag completes when the last fragment does.
class RaidChannel : public AsyncChannel {
 public:
  explicit RaidChannel(Raid0Device& dev) : dev_(dev) {
    for (std::size_t i = 0; i < dev.num_children(); ++i) {
      channels_.push_back(dev.child(i).open_channel());
    }
  }

  void submit(const AsyncRead& read) override {
    // Split into per-child fragments along page boundaries.
    std::size_t frag_count = 0;
    std::size_t done = 0;
    while (done < read.length) {
      ++frag_count;
      std::uint64_t page_remaining =
          kPageSize - (read.offset + done) % kPageSize;
      done += std::min<std::size_t>(page_remaining, read.length - done);
    }
    std::uint64_t ticket = next_ticket_++;
    outstanding_.emplace(ticket, Outstanding{read.user, frag_count});
    done = 0;
    while (done < read.length) {
      auto [child, child_off] = dev_.map(read.offset + done);
      std::uint64_t page_remaining =
          kPageSize - (read.offset + done) % kPageSize;
      std::size_t len =
          std::min<std::size_t>(page_remaining, read.length - done);
      AsyncRead frag;
      frag.offset = child_off;
      frag.length = static_cast<std::uint32_t>(len);
      frag.buffer = static_cast<std::byte*>(read.buffer) + done;
      frag.user = ticket;
      channels_[child]->submit(frag);
      done += len;
    }
    ++pending_;
    dev_.stats().record_read(read.length, 0);
  }

  std::size_t pending() const override { return pending_; }

  void wait(std::size_t min_completions,
            std::vector<std::uint64_t>& completed) override {
    min_completions = std::min(min_completions, pending_);
    std::size_t got = 0;
    std::vector<std::uint64_t> frags;
    while (got < min_completions) {
      frags.clear();
      bool progressed = false;
      for (auto& ch : channels_) {
        if (ch->pending() == 0) continue;
        // Ask for at least one completion from the first busy child when we
        // still owe the caller completions; otherwise reap opportunistically.
        std::size_t need = (got < min_completions && !progressed) ? 1 : 0;
        ch->wait(need, frags);
        if (!frags.empty()) progressed = true;
      }
      for (std::uint64_t ticket : frags) {
        auto it = outstanding_.find(ticket);
        BLAZE_CHECK(it != outstanding_.end(), "unknown RAID fragment");
        if (--it->second.fragments_left == 0) {
          completed.push_back(it->second.user);
          outstanding_.erase(it);
          --pending_;
          ++got;
        }
      }
      if (pending_ == 0) break;
      if (!progressed && got >= min_completions) break;
    }
  }

 private:
  struct Outstanding {
    std::uint64_t user;
    std::size_t fragments_left;
  };

  Raid0Device& dev_;
  std::vector<std::unique_ptr<AsyncChannel>> channels_;
  std::unordered_map<std::uint64_t, Outstanding> outstanding_;
  std::uint64_t next_ticket_ = 0;
  std::size_t pending_ = 0;
};

}  // namespace

std::unique_ptr<AsyncChannel> Raid0Device::open_channel() {
  return std::make_unique<RaidChannel>(*this);
}

void Raid0Device::begin_epoch_all() {
  stats_.begin_epoch();
  for (auto& c : children_) c->stats().begin_epoch();
}

}  // namespace blaze::device
