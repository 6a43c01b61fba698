// Benchmark-local BlockDevice decorator that times the device boundary.
//
// The engine's own counters say how many bytes a query asked for, but not
// how long the IO threads spent inside the device. TimedDevice wraps any
// device and accumulates the wall time of every read(), AsyncChannel
// submit() and wait() call, plus the reads and bytes submitted, so the
// benchmark can read the device layer from outside src/. Stacking two of
// them (one above a CachedDevice, one above the leaf device) gives the
// cache layer's self time as the difference of the two clocks: the leaf
// calls are made from inside the outer ones, on the same IO thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "device/block_device.h"
#include "util/timer.h"

namespace blaze::bench {

/// Counters one TimedDevice accumulates. Relaxed atomics: each channel is
/// driven by one IO thread, but several channels share one device.
struct DeviceClock {
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> ns{0};  ///< wall time inside the inner device

  void add_time(std::uint64_t t0) {
    ns.fetch_add(Timer::now_ns() - t0, std::memory_order_relaxed);
  }
  void add_read(std::uint64_t len) {
    reads.fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(len, std::memory_order_relaxed);
  }
};

class TimedChannel : public device::AsyncChannel {
 public:
  TimedChannel(std::unique_ptr<device::AsyncChannel> inner, DeviceClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  void submit(const device::AsyncRead& read) override {
    const std::uint64_t t0 = Timer::now_ns();
    inner_->submit(read);  // a throwing submit is neither timed nor counted
    clock_.add_time(t0);
    clock_.add_read(read.length);
  }

  std::size_t pending() const override { return inner_->pending(); }

  void wait(std::size_t min_completions,
            std::vector<std::uint64_t>& completed) override {
    const std::uint64_t t0 = Timer::now_ns();
    inner_->wait(min_completions, completed);
    clock_.add_time(t0);
  }

 private:
  std::unique_ptr<device::AsyncChannel> inner_;
  DeviceClock& clock_;
};

class TimedDevice : public device::BlockDevice {
 public:
  explicit TimedDevice(std::shared_ptr<device::BlockDevice> inner)
      : inner_(std::move(inner)) {}

  TimedDevice(const TimedDevice&) = delete;
  TimedDevice& operator=(const TimedDevice&) = delete;

  const std::string& name() const override { return inner_->name(); }
  std::uint64_t size() const override { return inner_->size(); }

  void read(std::uint64_t offset, std::span<std::byte> out) override {
    const std::uint64_t t0 = Timer::now_ns();
    inner_->read(offset, out);
    clock_.add_time(t0);
    clock_.add_read(out.size());
  }

  std::unique_ptr<device::AsyncChannel> open_channel() override {
    return std::make_unique<TimedChannel>(inner_->open_channel(), clock_);
  }

  device::IoStats& stats() override { return inner_->stats(); }

  const DeviceClock& clock() const { return clock_; }

 private:
  std::shared_ptr<device::BlockDevice> inner_;
  DeviceClock clock_;
};

}  // namespace blaze::bench
