// Bounded admission queue.
//
// The daemon's backpressure point: connection threads `try_push` incoming
// compile jobs and, when the queue is full, the daemon answers with an
// `overloaded` error and a retry hint instead of buffering unboundedly —
// admission control happens at the socket, not by OOM. Worker threads
// block in `pop` until a job or shutdown arrives. `close()` wakes every
// waiter; a closed queue still drains items already admitted, so graceful
// shutdown finishes accepted work before the workers exit.
//
// LaneQueue has K priority lanes, each one FIFO shared by every worker:
// lane 0 drains strictly before lane 1, so interactive requests overtake
// batch backfill, and within a lane any idle worker takes the oldest job.
// Workers hold no per-worker warm state (the profile cache, the CAS and
// the result memo are process-wide), so there is nothing to gain by
// steering a job to a particular worker, and no job waits behind a busy
// worker while another is idle.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace psaflow::serve {

/// Priority lanes, one FIFO each. One shared capacity bounds all lanes
/// together: admission control cares about total queued work, not its
/// priority mix.
template <typename T>
class LaneQueue {
public:
    LaneQueue(std::size_t capacity, std::size_t lanes)
        : capacity_(capacity == 0 ? 1 : capacity),
          queues_(lanes == 0 ? 1 : lanes) {}

    /// Admit `item` into `lane`. Never blocks: a full or closed queue
    /// returns false (reject with backpressure). Out-of-range lanes clamp
    /// to the lowest priority.
    [[nodiscard]] bool try_push(T item, std::size_t lane) {
        if (lane >= queues_.size()) lane = queues_.size() - 1;
        {
            std::lock_guard lock(mu_);
            if (closed_ || size_ >= capacity_) return false;
            queues_[lane].push_back(std::move(item));
            ++size_;
        }
        ready_.notify_one();
        return true;
    }

    /// Block until a job is available or the queue is closed *and*
    /// drained (nullopt — the worker's exit signal). Takes the oldest job
    /// of the highest non-empty lane.
    [[nodiscard]] std::optional<T> pop() {
        std::unique_lock lock(mu_);
        ready_.wait(lock, [&] { return closed_ || size_ > 0; });
        for (std::deque<T>& lane : queues_) {
            if (lane.empty()) continue;
            std::optional<T> item(std::move(lane.front()));
            lane.pop_front();
            --size_;
            return item;
        }
        return std::nullopt; // closed and drained
    }

    /// Stop admitting; wake all poppers. Items already queued still drain.
    void close() {
        {
            std::lock_guard lock(mu_);
            closed_ = true;
        }
        ready_.notify_all();
    }

    [[nodiscard]] std::size_t depth() const {
        std::lock_guard lock(mu_);
        return size_;
    }

    [[nodiscard]] std::size_t lane_depth(std::size_t lane) const {
        std::lock_guard lock(mu_);
        return lane < queues_.size() ? queues_[lane].size() : 0;
    }

    [[nodiscard]] std::size_t capacity() const { return capacity_; }
    [[nodiscard]] std::size_t lanes() const { return queues_.size(); }

    [[nodiscard]] bool closed() const {
        std::lock_guard lock(mu_);
        return closed_;
    }

private:
    const std::size_t capacity_;
    mutable std::mutex mu_;
    std::condition_variable ready_;
    std::vector<std::deque<T>> queues_; ///< one FIFO per lane
    std::size_t size_ = 0;
    bool closed_ = false;
};

} // namespace psaflow::serve
